package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/wire"
)

// Scenario is one declarative fault campaign: a fleet shape and a
// timed script of steps, each followed by a full invariant check.
type Scenario struct {
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Fleet       FleetSpec `json:"fleet"`
	Steps       []Step    `json:"steps"`
}

// FleetSpec is the scenario's fleet shape, and what NewFleet builds
// from (process-vs-in-process and binaries are the runner's choice, not
// the scenario's). Zero values take defaults: one shard, one store, no
// replicas, one-shot, keep everything, a 5s op timeout, a 1s lease,
// the runner's store backend and fsync=always.
type FleetSpec struct {
	Shards int `json:"shards"`
	Stores int `json:"stores"`
	// Replicas is the serving-replica count. Their fleet owns one
	// ctrl.Announcer (the "stable VIP") that every elected controller
	// announces through, so replicas' waits survive failover. Replicas
	// are in-process even under Procs: their faults are the same TCP
	// proxies either way, and the checker reads their served state.
	Replicas int `json:"replicas,omitempty"`
	// Policy and KeepLast are the engine template of every shard, hosted
	// in-process or forked. Checkpoints are fp32: invariant 2 compares a
	// restore with an fp32 reference replica bit for bit.
	Policy   string `json:"policy,omitempty"`    // full|one-shot|consecutive|intermittent; empty is one-shot
	KeepLast int    `json:"keep_last,omitempty"` // every shard's retention; 0 keeps everything
	// OpTimeoutMs bounds each agent control operation including its
	// store I/O — the self-defense deadline that unsticks an agent from
	// a stalled store. LeaseTTLMs is the controller lease TTL; failover
	// takes roughly one TTL.
	OpTimeoutMs int `json:"op_timeout_ms,omitempty"`
	LeaseTTLMs  int `json:"lease_ttl_ms,omitempty"`
	// StoreBackend pins the store plane to "mem" or "disk" (the
	// crash-consistent segment log). Empty defers to the runner
	// (RunnerConfig.DiskStores), so the same campaign runs against both
	// backends in the nightly matrix; campaigns that kill stores must pin
	// "disk" — a killed MemStore is just data loss.
	StoreBackend string `json:"store_backend,omitempty"`
	// Disk-backend knobs: fsync policy flag value (ignored for mem) and
	// injected device latencies, each disk store's DiskConfig.PutDelay
	// (each Put and Delete) and SyncDelay (each fsync), or objstored's
	// -put-delay and -sync-delay. A mem fleet refuses either delay.
	Fsync           string `json:"fsync,omitempty"`
	DiskPutDelayMs  int    `json:"disk_put_delay_ms,omitempty"`
	DiskSyncDelayMs int    `json:"disk_sync_delay_ms,omitempty"`
}

// FaultSpec describes a link degradation. Zero-valued fields are
// omitted; Partition and DropConns override the shaping fields.
type FaultSpec struct {
	// Partition hard-partitions the link until healed.
	Partition bool `json:"partition,omitempty"`
	// DropConns tears down live connections once (transient blip).
	DropConns bool `json:"drop_conns,omitempty"`
	// Link holds the shaping knobs, applied together as the link state.
	Link
	// Direction is "up", "down", or "both" (default).
	Direction string `json:"direction,omitempty"`
}

// Step is one scripted action. Op selects the action; the other fields
// parameterize it:
//
//	checkpoint  — drive a composite commit at Step. Expect "fail" means
//	              the commit MUST abort (a mid-commit fault is scripted);
//	              anything else means it must succeed. At ("after-prepare"
//	              or "after-commit") arms Fault/Target and Kill to fire
//	              inside the commit window.
//	fault       — apply Fault to every Target link.
//	heal        — restore Target links (all links when Target is empty).
//	kill        — crash shard Shard (SIGKILL / Host.Kill). A checkpoint
//	              step's Kill field also accepts "store:<i>"/"store:anchor"
//	              to kill a disk-backed store inside the commit window.
//	restart     — restart shard Shard.
//	kill-store  — kill -9 store Target ("store:<i>" or "store:anchor");
//	              disk-backed fleets only.
//	restart-store — restart a killed store from its on-disk log at its
//	              original address.
//	lead        — elect Holder as leader (initial election).
//	failover    — abandon the current leader and promote Holder, who
//	              waits out the lease TTL like a real standby.
//	sweep       — run ckpt.SweepOrphans and fail on error, then wait
//	              (within the step timeout) until a dry run finds nothing
//	              more: retention sweeps in flight finish on their own.
//	serve-wait  — block until every serving replica has converged on the
//	              newest committed checkpoint (bounded by the step
//	              timeout; a replica that never converges is a harness
//	              failure).
//	sleep       — wait Ms milliseconds.
//	inject-partial-composite — write a composite manifest whose shard
//	              manifests don't exist, simulating a controller with the
//	              commit fence disabled. Gated by RunnerConfig
//	              AllowInjection; exists to prove the checker fires.
type Step struct {
	Op string `json:"op"`

	Step   uint64 `json:"step,omitempty"`
	Expect string `json:"expect,omitempty"`
	At     string `json:"at,omitempty"`
	Kill   string `json:"kill,omitempty"`

	Target string     `json:"target,omitempty"`
	Fault  *FaultSpec `json:"fault,omitempty"`

	Holder string `json:"holder,omitempty"`
	Shard  int    `json:"shard,omitempty"`
	Ms     int    `json:"ms,omitempty"`
	ID     int    `json:"id,omitempty"`
}

// ParseScenario decodes a scenario from JSON, rejecting unknown fields
// so a typo'd knob fails loudly instead of silently not injecting.
func ParseScenario(blob []byte) (*Scenario, error) {
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("chaos: scenario has no name")
	}
	if len(sc.Steps) == 0 {
		return nil, fmt.Errorf("chaos: scenario %s has no steps", sc.Name)
	}
	return sc, nil
}

// RunnerConfig configures scenario execution.
type RunnerConfig struct {
	// Procs forks real objstored/shardd processes (Bins required).
	Procs bool
	Bins  Bins
	// AllowInjection enables the inject-partial-composite op. Off by
	// default: a campaign that "passes" by injecting corruption is a
	// checker test, not a system test.
	AllowInjection bool
	// DiskStores runs every campaign that doesn't pin a store backend on
	// the disk backend — the nightly both-backends matrix switch.
	DiskStores bool
	// Logf receives the fleet's and runner's diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// StepResult records one executed step and the invariant check that
// followed it.
type StepResult struct {
	Index  int    `json:"index"`
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	// ExecMs and CheckMs time the step itself and the invariant check
	// that followed it.
	ExecMs     int64       `json:"exec_ms"`
	CheckMs    int64       `json:"check_ms"`
	Violations []Violation `json:"violations,omitempty"`
}

// Result is a completed scenario run. The run passed iff Err is empty
// and no step recorded violations.
type Result struct {
	Scenario   string       `json:"scenario"`
	Steps      []StepResult `json:"steps"`
	Committed  []Committed  `json:"committed"`
	Violations []Violation  `json:"violations,omitempty"`
	Err        string       `json:"error,omitempty"`
}

// Passed reports whether the campaign held every invariant and met
// every step contract.
func (r *Result) Passed() bool { return r.Err == "" && len(r.Violations) == 0 }

// Run executes one scenario: builds the fleet, walks the script, and
// checks all four invariants after every step. The returned error is
// reserved for harness failures (a step contract broken, the observer
// store erroring); invariant verdicts are in Result.Violations.
func Run(ctx context.Context, sc *Scenario, rcfg RunnerConfig) (*Result, error) {
	res := &Result{Scenario: sc.Name}
	fail := func(err error) (*Result, error) {
		res.Err = err.Error()
		return res, err
	}

	f, err := NewFleet("chaos-"+sc.Name, sc.Fleet, rcfg)
	if err != nil {
		return fail(fmt.Errorf("chaos: fleet for %s: %w", sc.Name, err))
	}
	defer f.Close()
	checker, err := NewChecker(f)
	if err != nil {
		return fail(err)
	}

	r := &runner{f: f}
	for i, step := range sc.Steps {
		sr := StepResult{Index: i, Op: step.Op}
		start := time.Now()
		if err := r.exec(ctx, &step, &sr); err != nil {
			res.Steps = append(res.Steps, sr)
			return fail(fmt.Errorf("chaos: %s step %d (%s): %w", sc.Name, i, step.Op, err))
		}
		sr.ExecMs = time.Since(start).Milliseconds()
		start = time.Now()
		vio, err := checker.Check(ctx, r.committed)
		if err != nil {
			res.Steps = append(res.Steps, sr)
			return fail(fmt.Errorf("chaos: %s step %d (%s): invariant check: %w", sc.Name, i, step.Op, err))
		}
		sr.CheckMs = time.Since(start).Milliseconds()
		sr.Violations = vio
		res.Steps = append(res.Steps, sr)
		res.Violations = append(res.Violations, vio...)
	}
	res.Committed = r.committed
	return res, nil
}

// stepTimeout bounds each step, checkpoint commits included.
const stepTimeout = 60 * time.Second

// runner carries one scenario execution's mutable state.
type runner struct {
	f         *Fleet
	committed []Committed
}

func (r *runner) exec(ctx context.Context, s *Step, sr *StepResult) error {
	ctx, cancel := context.WithTimeout(ctx, stepTimeout)
	defer cancel()
	switch s.Op {
	case "checkpoint":
		return r.checkpoint(ctx, s, sr)
	case "fault":
		if s.Fault == nil {
			return fmt.Errorf("fault step has no fault spec")
		}
		shims, err := r.targets(s.Target)
		if err != nil {
			return err
		}
		applyFault(shims, s.Fault)
		sr.Detail = fmt.Sprintf("%s on %s", faultLabel(s.Fault), s.Target)
		return nil
	case "heal":
		shims, err := r.targets(s.Target)
		if err != nil {
			return err
		}
		for _, p := range shims {
			p.Heal()
		}
		sr.Detail = s.Target
		if s.Target == "" {
			sr.Detail = "all links"
		}
		return nil
	case "kill":
		r.f.KillShard(s.Shard)
		sr.Detail = fmt.Sprintf("shard %d", s.Shard)
		return nil
	case "restart":
		sr.Detail = fmt.Sprintf("shard %d", s.Shard)
		return r.f.RestartShard(s.Shard)
	case "kill-store":
		i, err := r.storeIndex(s.Target, "store")
		if err != nil {
			return err
		}
		sr.Detail = fmt.Sprintf("store %d", i)
		return r.f.KillStore(i)
	case "restart-store":
		i, err := r.storeIndex(s.Target, "store")
		if err != nil {
			return err
		}
		sr.Detail = fmt.Sprintf("store %d", i)
		return r.f.RestartStore(i)
	case "lead":
		sr.Detail = s.Holder
		return r.f.Lead(ctx, s.Holder)
	case "failover":
		sr.Detail = s.Holder
		return r.f.Failover(ctx, s.Holder)
	case "sweep":
		for dry := false; ; dry = true {
			rep, err := ckpt.SweepOrphans(ctx, r.f.jobID, r.f.Observer(), dry)
			switch {
			case err != nil: // the step timeout included
				return fmt.Errorf("sweep: %w", err)
			case !dry:
				sr.Detail = fmt.Sprintf("swept %d orphans of %d scanned", len(rep.Orphans), rep.Scanned)
			case len(rep.Orphans) == 0:
				return nil
			default: // a retention sweep is part-way through a checkpoint
				time.Sleep(20 * time.Millisecond)
			}
		}
	case "serve-wait":
		return r.serveWait(ctx, sr)
	case "sleep":
		time.Sleep(time.Duration(s.Ms) * time.Millisecond)
		sr.Detail = fmt.Sprintf("%dms", s.Ms)
		return nil
	case "inject-partial-composite":
		if !r.f.run.AllowInjection {
			return fmt.Errorf("inject-partial-composite requires RunnerConfig.AllowInjection")
		}
		sr.Detail = fmt.Sprintf("composite %d", s.ID)
		return r.injectPartial(ctx, s.ID)
	default:
		return fmt.Errorf("unknown op %q", s.Op)
	}
}

// checkpoint drives one commit, arming the At-window hooks first.
func (r *runner) checkpoint(ctx context.Context, s *Step, sr *StepResult) error {
	hook, err := r.buildHook(s)
	if err != nil {
		return err
	}
	switch s.At {
	case "":
	case "after-prepare":
		r.f.SetAfterPrepare(hook)
	case "after-commit":
		r.f.SetAfterCommit(hook)
	default:
		return fmt.Errorf("unknown checkpoint window %q", s.At)
	}
	// Disarm whatever didn't fire, whatever happens.
	defer r.f.SetAfterPrepare(nil)
	defer r.f.SetAfterCommit(nil)

	man, err := r.f.Checkpoint(ctx, s.Step)
	if s.Expect == "fail" {
		if err == nil {
			return fmt.Errorf("checkpoint at step %d committed, scripted fault should have aborted it", s.Step)
		}
		sr.Detail = fmt.Sprintf("step %d aborted as scripted: %v", s.Step, err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint at step %d: %w", s.Step, err)
	}
	r.committed = append(r.committed, Committed{ID: man.ID, Step: s.Step})
	sr.Detail = fmt.Sprintf("committed composite %d at step %d", man.ID, s.Step)
	return nil
}

// buildHook composes the faults and kills a checkpoint step arms in its
// At window. nil when the step scripts neither.
func (r *runner) buildHook(s *Step) (func(), error) {
	if s.At == "" {
		if s.Fault != nil || s.Kill != "" {
			return nil, fmt.Errorf("checkpoint step has fault/kill but no at window")
		}
		return nil, nil
	}
	var shims []*Proxy
	if s.Fault != nil {
		var err error
		if shims, err = r.targets(s.Target); err != nil {
			return nil, err
		}
	}
	var shardKills, storeKills []int
	if s.Kill != "" {
		for _, part := range strings.Split(s.Kill, ",") {
			part = strings.TrimSpace(part)
			if strings.HasPrefix(part, "store:") {
				idx, err := r.storeIndex(part, "store")
				if err != nil {
					return nil, err
				}
				storeKills = append(storeKills, idx)
				continue
			}
			idx, err := targetIndex(part, "shard", r.f.Shards())
			if err != nil {
				return nil, err
			}
			shardKills = append(shardKills, idx)
		}
	}
	if shims == nil && shardKills == nil && storeKills == nil {
		return nil, fmt.Errorf("checkpoint step has at=%q but neither fault nor kill", s.At)
	}
	fault := s.Fault
	return func() {
		if fault != nil {
			applyFault(shims, fault)
		}
		for _, sh := range shardKills {
			r.f.KillShard(sh)
		}
		for _, st := range storeKills {
			if err := r.f.KillStore(st); err != nil {
				r.f.run.Logf("chaos: in-window kill-store %d: %v", st, err)
			}
		}
	}, nil
}

// serveWait blocks until every replica serves the newest committed
// checkpoint. The replicas publish convergence through ReplicaServed;
// staleness is legal between steps, but a serve-wait step is the
// scenario asserting "the read plane has caught up NOW".
func (r *runner) serveWait(ctx context.Context, sr *StepResult) error {
	if r.f.Replicas() == 0 {
		return fmt.Errorf("serve-wait on a fleet with no replicas")
	}
	if len(r.committed) == 0 {
		return fmt.Errorf("serve-wait before any committed checkpoint")
	}
	want := r.committed[len(r.committed)-1].ID
	for {
		behind := -1
		for i := 0; i < r.f.Replicas(); i++ {
			if id, _ := r.f.ReplicaServed(i); id < want {
				behind = i
				break
			}
		}
		if behind < 0 {
			sr.Detail = fmt.Sprintf("%d replicas serving composite %d", r.f.Replicas(), want)
			return nil
		}
		select {
		case <-ctx.Done():
			id, _ := r.f.ReplicaServed(behind)
			return fmt.Errorf("replica %d stuck serving composite %d, want %d (stats %+v): %w",
				behind, id, want, r.f.ReplicaStats(behind), ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// targets resolves a comma-separated target list to shims. Syntax:
// store:<i>, ctrlstore:<i>, agent:<i> (with "anchor" as a store index),
// replica:<i> = every link replica i owns (announce + store shims), and
// leader = every link the leader depends on (all agent shims + all
// controller-side store shims).
func (r *runner) targets(spec string) ([]*Proxy, error) {
	if spec == "" {
		var all []*Proxy
		all = append(all, r.f.storeShims...)
		all = append(all, r.f.ctrlShims...)
		all = append(all, r.f.agentShims...)
		for i := 0; i < r.f.Replicas(); i++ {
			all = append(all, r.f.ReplicaShims(i)...)
		}
		return all, nil
	}
	var out []*Proxy
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		switch {
		case part == "leader":
			out = append(out, r.f.agentShims...)
			out = append(out, r.f.ctrlShims...)
		case strings.HasPrefix(part, "replica:"):
			i, err := targetIndex(part, "replica", r.f.Replicas())
			if err != nil {
				return nil, err
			}
			out = append(out, r.f.ReplicaShims(i)...)
		case strings.HasPrefix(part, "store:"):
			i, err := r.storeIndex(part, "store")
			if err != nil {
				return nil, err
			}
			out = append(out, r.f.StoreShim(i))
		case strings.HasPrefix(part, "ctrlstore:"):
			i, err := r.storeIndex(part, "ctrlstore")
			if err != nil {
				return nil, err
			}
			out = append(out, r.f.CtrlStoreShim(i))
		case strings.HasPrefix(part, "agent:"):
			i, err := targetIndex(part, "agent", r.f.Shards())
			if err != nil {
				return nil, err
			}
			out = append(out, r.f.AgentShim(i))
		default:
			return nil, fmt.Errorf("unknown target %q", part)
		}
	}
	return out, nil
}

func (r *runner) storeIndex(part, kind string) (int, error) {
	if part == kind+":anchor" {
		return r.f.AnchorStore(), nil
	}
	return targetIndex(part, kind, r.f.Stores())
}

func targetIndex(part, kind string, n int) (int, error) {
	part = strings.TrimSpace(part)
	numStr, ok := strings.CutPrefix(part, kind+":")
	if !ok {
		return 0, fmt.Errorf("target %q is not %s:<i>", part, kind)
	}
	i, err := strconv.Atoi(numStr)
	if err != nil || i < 0 || i >= n {
		return 0, fmt.Errorf("target %q out of range [0,%d)", part, n)
	}
	return i, nil
}

// applyFault installs spec on every shim in the list.
func applyFault(shims []*Proxy, spec *FaultSpec) {
	for _, p := range shims {
		switch {
		case spec.Partition:
			p.Partition()
		case spec.DropConns:
			p.DropConns()
		default:
			switch spec.Direction {
			case "up":
				p.SetLink(Up, spec.Link)
			case "down":
				p.SetLink(Down, spec.Link)
			default:
				p.SetLink(Up, spec.Link)
				p.SetLink(Down, spec.Link)
			}
		}
	}
}

func faultLabel(spec *FaultSpec) string {
	switch {
	case spec.Partition:
		return "partition"
	case spec.DropConns:
		return "drop-conns"
	case spec.Stall:
		return "stall"
	case spec.BandwidthBps > 0:
		return fmt.Sprintf("throttle %.0fB/s", spec.BandwidthBps)
	case spec.DropProb > 0:
		return fmt.Sprintf("drop %.2f", spec.DropProb)
	default:
		return fmt.Sprintf("latency %dms±%dms", spec.LatencyMs, spec.JitterMs)
	}
}

// injectPartial writes a composite manifest for id whose shard
// manifests do not exist — the torn state a controller without the
// commit fence could leave. The template is the newest real composite.
func (r *runner) injectPartial(ctx context.Context, id int) error {
	rest, err := ckpt.NewRestorer(r.f.jobID, r.f.Observer())
	if err != nil {
		return err
	}
	mans, err := rest.ListManifests(ctx)
	if err != nil {
		return err
	}
	if len(mans) == 0 {
		return fmt.Errorf("inject-partial-composite needs at least one committed checkpoint as template")
	}
	man := *mans[len(mans)-1]
	man.ID = id
	man.ShardManifestKeys = make([]string, man.ShardCount)
	for s := 0; s < man.ShardCount; s++ {
		// Keys of an attempt that never prepared: syntactically valid,
		// guaranteed absent.
		man.ShardManifestKeys[s] = wire.ManifestKey(wire.ShardJobID(r.f.jobID, s), id)
	}
	blob, err := wire.EncodeManifest(&man)
	if err != nil {
		return err
	}
	return r.f.Observer().Put(ctx, wire.ManifestKey(r.f.jobID, id), blob)
}
