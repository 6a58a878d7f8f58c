package chaos

// The builtin campaign matrix. Every campaign asserts, after every
// step, the four invariants in Checker: no restorable partial
// composite, RestoreLatest bit-identical to the reference replica,
// gapless checkpoint-ID convergence across rejoin/failover, and — when
// the fleet hosts serving replicas — serve consistency (every lookup
// answered from exactly one committed checkpoint, bit-identically).
//
// The matrix is expressed as data — the same Scenario values run
// in-process under `go test -race` (the small matrix, per PR) and over
// forked objstored/shardd processes via cmd/chaosctl (the full matrix,
// nightly).

// fleet3x3 is the standard campaign topology: three shard agents over
// three stores, a 500ms lease so failover scenarios settle quickly, and
// a 4s op deadline so stalled-store scenarios unstick within a step.
var fleet3x3 = FleetSpec{Shards: 3, Stores: 3, LeaseTTLMs: 500, OpTimeoutMs: 4000}

// fleetConsecutive3x3 is the standard topology writing consecutive
// increments — the one policy under which a checkpoint holds only its own
// interval's rows, so an attempt that fails after its snapshot was cut
// loses rows for good unless the shard writer carries them to the retry.
var fleetConsecutive3x3 = FleetSpec{Shards: 3, Stores: 3, Policy: "consecutive", LeaseTTLMs: 500, OpTimeoutMs: 4000}

// fleetServe3x3 adds one serving replica to the standard topology —
// the shape for read-plane campaigns, with the serve-consistency
// invariant checked after every step.
var fleetServe3x3 = FleetSpec{Shards: 3, Stores: 3, Replicas: 1, LeaseTTLMs: 500, OpTimeoutMs: 4000}

// fleetDisk3x3 is the same topology pinned to the disk store backend —
// the shape for campaigns that kill stores (a killed MemStore is data
// loss, not a crash). Delays inject slow-device latency in ms.
func fleetDisk3x3(fsync string, putDelayMs, syncDelayMs int) FleetSpec {
	fs := fleet3x3
	fs.StoreBackend = "disk"
	fs.Fsync = fsync
	fs.DiskPutDelayMs = putDelayMs
	fs.DiskSyncDelayMs = syncDelayMs
	return fs
}

// leaderPartitionedMidCommit is the script of partition-leader-mid-commit
// and of its consecutive-policy twin.
func leaderPartitionedMidCommit() []Step {
	return []Step{
		{Op: "lead", Holder: "leader-0"},
		{Op: "checkpoint", Step: 4},
		{Op: "checkpoint", Step: 8, At: "after-prepare", Target: "leader",
			Fault: &FaultSpec{Partition: true}, Expect: "fail"},
		{Op: "heal"},
		{Op: "failover", Holder: "leader-1"},
		{Op: "checkpoint", Step: 8},
		{Op: "sweep"},
		{Op: "checkpoint", Step: 12},
	}
}

// fleetRetention2x2 is the retention topology: two shards that each keep
// the newest two checkpoints and what those restore through, over two
// disk stores that fsync every tombstone.
func fleetRetention2x2(policy string) FleetSpec {
	return FleetSpec{Shards: 2, Stores: 2, Policy: policy, KeepLast: 2, StoreBackend: "disk", Fsync: "always",
		LeaseTTLMs: 500, OpTimeoutMs: 4000}
}

// shardKilledMidRetention is the script of kill-shard-mid-retention and of
// its consecutive-policy twin. Shard 1 dies between the commit point of
// checkpoint 3 and its own finalize: its sweep of what commit 2 retired is
// abandoned mid-flight and what commit 3 retires it never starts on, while
// shard 0 goes ahead and unlists it.
func shardKilledMidRetention() []Step {
	return []Step{
		{Op: "lead", Holder: "leader-0"},
		{Op: "checkpoint", Step: 4},
		{Op: "checkpoint", Step: 8},
		{Op: "checkpoint", Step: 12},
		{Op: "checkpoint", Step: 16, At: "after-commit", Kill: "shard:1"},
		{Op: "restart", Shard: 1},
		{Op: "failover", Holder: "leader-1"},
		{Op: "checkpoint", Step: 20},
		{Op: "checkpoint", Step: 24},
		{Op: "sweep"},
	}
}

// DemoScenario names the campaign examples/fleet runs over forked
// daemons: the only builtin that carries a replica across a failover
// and a store kill-9.
const DemoScenario = "kill-rejoin-failover-store-crash"

// BuiltinScenarios returns the full campaign matrix.
func BuiltinScenarios() []*Scenario {
	return []*Scenario{
		{
			Name:        "slow-store-throttle",
			Description: "one store throttled to a trickle mid-campaign; commits slow down but stay correct",
			Fleet:       fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "fault", Target: "store:0", Fault: &FaultSpec{Link: Link{BandwidthBps: 128_000}}},
				{Op: "checkpoint", Step: 8},
				{Op: "heal"},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name:        "asymmetric-latency",
			Description: "one agent's response path and one store's request path degraded independently",
			Fleet:       fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "fault", Target: "agent:0", Fault: &FaultSpec{Link: Link{LatencyMs: 80, JitterMs: 40}, Direction: "down"}},
				{Op: "fault", Target: "store:1", Fault: &FaultSpec{Link: Link{LatencyMs: 50}, Direction: "up"}},
				{Op: "checkpoint", Step: 8},
				{Op: "heal"},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name: "partition-leader-mid-commit",
			Description: "leader loses every link between publish and commit; abort can't reach the " +
				"agents, so a standby must fence the torn attempt away via epoch adoption",
			Fleet: fleet3x3,
			Steps: leaderPartitionedMidCommit(),
		},
		{
			Name: "partition-leader-mid-commit-consecutive",
			Description: "partition-leader-mid-commit under the consecutive policy: the torn attempt's " +
				"snapshot already reset the trackers, so the standby's retry of the same cut must still " +
				"store that interval's rows",
			Fleet: fleetConsecutive3x3,
			Steps: leaderPartitionedMidCommit(),
		},
		{
			Name: "partition-anchor-store-fence",
			Description: "the lease store vanishes between publish and commit; the fence renewal must " +
				"refuse to write the composite manifest",
			Fleet: fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "checkpoint", Step: 8, At: "after-prepare", Target: "ctrlstore:anchor",
					Fault: &FaultSpec{Partition: true}, Expect: "fail"},
				{Op: "heal"},
				{Op: "checkpoint", Step: 8},
				{Op: "sweep"},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name:        "partition-anchor-store-outage",
			Description: "the anchor store drops off the network entirely before a commit attempt",
			Fleet:       fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "fault", Target: "store:anchor,ctrlstore:anchor", Fault: &FaultSpec{Partition: true}},
				{Op: "checkpoint", Step: 8, Expect: "fail"},
				{Op: "heal"},
				{Op: "checkpoint", Step: 8},
				{Op: "sweep"},
			},
		},
		{
			Name: "partition-store-outage-consecutive",
			Description: "partition-anchor-store-outage under the consecutive policy, with the outage on " +
				"the agents' store links only, so that the attempt gets past the controller's lease renewal: " +
				"every shard cuts its snapshot and then fails its first Put (shard 0 the dense object); " +
				"the retried cut and the increment after it must restore bit-identically",
			Fleet: fleetConsecutive3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "fault", Target: "store:0,store:1,store:2", Fault: &FaultSpec{Partition: true}},
				{Op: "checkpoint", Step: 8, Expect: "fail"},
				{Op: "heal"},
				{Op: "checkpoint", Step: 8},
				{Op: "checkpoint", Step: 12},
				{Op: "sweep"},
			},
		},
		{
			Name:        "kill-during-publish",
			Description: "one shard crashes between prepare and publish; the attempt aborts and the shard rejoins",
			Fleet:       fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "checkpoint", Step: 8, At: "after-prepare", Kill: "shard:1", Expect: "fail"},
				{Op: "restart", Shard: 1},
				{Op: "checkpoint", Step: 8},
				{Op: "sweep"},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name:        "correlated-double-kill",
			Description: "two shards crash in the same commit window — a correlated failure, not independent noise",
			Fleet:       fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "checkpoint", Step: 8, At: "after-prepare", Kill: "shard:1,shard:2", Expect: "fail"},
				{Op: "restart", Shard: 1},
				{Op: "restart", Shard: 2},
				{Op: "checkpoint", Step: 8},
				{Op: "sweep"},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name: "kill-during-finalize",
			Description: "a shard crashes after the composite manifest lands but before finalize; the " +
				"checkpoint must survive and the rejoined shard must converge on it",
			Fleet: fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				// Expect OK: past the commit point, a crash may no longer
				// invalidate the checkpoint.
				{Op: "checkpoint", Step: 8, At: "after-commit", Kill: "shard:1"},
				{Op: "restart", Shard: 1},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name: "kill-shard-mid-retention",
			Description: "full checkpoints under KeepLast 2: a shard is killed past the commit point, its retention " +
				"sweep mid-flight or never started; every listed composite resolves and gc finds nothing at the end",
			Fleet: fleetRetention2x2("full"),
			Steps: shardKilledMidRetention(),
		},
		{
			Name: "kill-shard-mid-retention-consecutive",
			Description: "kill-shard-mid-retention under the consecutive policy: every checkpoint is a link of " +
				"the newest one's chain, so retention is on and must retire nothing",
			Fleet: fleetRetention2x2("consecutive"),
			Steps: shardKilledMidRetention(),
		},
		{
			Name: "stall-store-mid-commit",
			Description: "every data-plane store goes silent (connections up, zero bytes) during publish; " +
				"agents must save themselves with op deadlines",
			Fleet: FleetSpec{Shards: 3, Stores: 3, LeaseTTLMs: 500, OpTimeoutMs: 1500},
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "checkpoint", Step: 8, At: "after-prepare", Target: "store:0,store:1,store:2",
					Fault: &FaultSpec{Link: Link{Stall: true}, Direction: "up"}, Expect: "fail"},
				{Op: "heal"},
				{Op: "checkpoint", Step: 8},
				{Op: "sweep"},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name: "kill9-objstored-mid-commit",
			Description: "the anchor store is killed -9 between prepare and commit and restarted from its " +
				"on-disk segment log; the torn attempt aborts, recovery truncates the torn tail, and the " +
				"retried commit plus RestoreLatest are bit-identical",
			Fleet: fleetDisk3x3("always", 0, 0),
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				// The lease renewal immediately before the composite Put
				// lands on the anchor, so killing it in this window aborts
				// the commit deterministically — with writes torn mid-Put.
				{Op: "checkpoint", Step: 8, At: "after-prepare", Kill: "store:anchor", Expect: "fail"},
				{Op: "restart-store", Target: "store:anchor"},
				{Op: "checkpoint", Step: 8},
				{Op: "sweep"},
				{Op: "checkpoint", Step: 12},
			},
		},
		{
			Name: "commit-under-slow-fsync",
			Description: "every disk write and fsync pays injected device latency under fsync=always; " +
				"commits slow down but stay correct, and a kill-9/restart cycle at the end proves the " +
				"synced log restores bit-identically",
			Fleet: fleetDisk3x3("always", 1, 2),
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "checkpoint", Step: 8},
				{Op: "kill-store", Target: "store:1"},
				{Op: "restart-store", Target: "store:1"},
				{Op: "checkpoint", Step: 12},
				{Op: "sweep"},
			},
		},
		{
			Name: "partition-replica-across-commits",
			Description: "a serving replica is partitioned off both its announce endpoint and every store " +
				"while two composites commit; it must keep serving its last checkpoint bit-identically " +
				"(stale, never torn) and converge bit-exactly once healed",
			Fleet: fleetServe3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "serve-wait"},
				{Op: "fault", Target: "replica:0", Fault: &FaultSpec{Partition: true}},
				{Op: "checkpoint", Step: 8},
				{Op: "checkpoint", Step: 12},
				{Op: "heal", Target: "replica:0"},
				{Op: "serve-wait"},
				{Op: "checkpoint", Step: 16},
				{Op: "serve-wait"},
			},
		},
		{
			Name: DemoScenario,
			Description: "the examples/fleet tour: a replica follows three commits, a shard is killed and " +
				"rejoins, a standby takes the lease, the anchor store is killed -9 and restarted from its " +
				"segment log — the replica keeps serving through all of it and converges after each commit",
			Fleet: FleetSpec{Shards: 3, Stores: 2, Replicas: 1, StoreBackend: "disk", Fsync: "always",
				LeaseTTLMs: 500, OpTimeoutMs: 4000},
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "checkpoint", Step: 8},
				{Op: "checkpoint", Step: 12},
				{Op: "serve-wait"},
				{Op: "kill", Shard: 1},
				{Op: "restart", Shard: 1},
				{Op: "failover", Holder: "leader-1"},
				{Op: "checkpoint", Step: 16},
				{Op: "serve-wait"},
				{Op: "kill-store", Target: "store:anchor"},
				{Op: "restart-store", Target: "store:anchor"},
				{Op: "checkpoint", Step: 20},
				{Op: "sweep"},
			},
		},
		{
			Name:        "flap-agent-partition",
			Description: "agents drop out and heal repeatedly across consecutive commits",
			Fleet:       fleet3x3,
			Steps: []Step{
				{Op: "lead", Holder: "leader-0"},
				{Op: "checkpoint", Step: 4},
				{Op: "fault", Target: "agent:1", Fault: &FaultSpec{Partition: true}},
				{Op: "checkpoint", Step: 8, Expect: "fail"},
				{Op: "heal", Target: "agent:1"},
				{Op: "checkpoint", Step: 8},
				{Op: "fault", Target: "agent:2", Fault: &FaultSpec{Partition: true}},
				{Op: "checkpoint", Step: 12, Expect: "fail"},
				{Op: "heal", Target: "agent:2"},
				{Op: "checkpoint", Step: 12},
				{Op: "sweep"},
			},
		},
	}
}

// smallMatrix names the per-PR subset: one throttle campaign, one crash
// campaign, one partition+failover campaign, the two consecutive-policy
// campaigns (a failed attempt must not lose its interval's rows), the
// disk-backed store-kill campaign, the read-plane partition campaign and
// the retention campaign under both of its policies — each exercising a
// different commit window, policy or plane, all fast enough for `-race`
// in CI.
var smallMatrix = []string{
	"slow-store-throttle",
	"kill-during-publish",
	"partition-leader-mid-commit",
	"partition-leader-mid-commit-consecutive",
	"partition-store-outage-consecutive",
	"kill9-objstored-mid-commit",
	"partition-replica-across-commits",
	"kill-shard-mid-retention",
	"kill-shard-mid-retention-consecutive",
}

// SmallScenarios returns the per-PR subset of the builtin matrix.
func SmallScenarios() []*Scenario {
	var out []*Scenario
	for _, name := range smallMatrix {
		out = append(out, FindScenario(name))
	}
	return out
}

// FindScenario returns the builtin scenario with the given name, nil if
// none.
func FindScenario(name string) *Scenario {
	for _, sc := range BuiltinScenarios() {
		if sc.Name == name {
			return sc
		}
	}
	return nil
}
