package chaos

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/ctrl/shardhost"
	"repro/internal/objstore"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Bins names the prebuilt daemon binaries a process-mode fleet forks.
type Bins struct {
	Objstored string
	Shardd    string
}

// ResolveBins returns the daemon binaries for a process-mode fleet,
// building whichever of the two paths is empty from the module with
// `go build` into a temp directory that cleanup removes.
func ResolveBins(objstored, shardd string) (bins Bins, cleanup func(), err error) {
	bins = Bins{Objstored: objstored, Shardd: shardd}
	cleanup = func() {}
	if bins.Objstored != "" && bins.Shardd != "" {
		return bins, cleanup, nil
	}
	// Building repro/cmd/... needs the module in scope; when the caller
	// is a prebuilt binary run from elsewhere, say so instead of
	// surfacing a cryptic "not in std" build error.
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if mod := string(bytes.TrimSpace(out)); err != nil || mod == "" || mod == os.DevNull {
		return bins, cleanup, errors.New("chaos: a process-mode fleet builds objstored/shardd from source: " +
			"run from inside the repository, or pass prebuilt binaries")
	}
	dir, err := os.MkdirTemp("", "chaos-bins-")
	if err != nil {
		return bins, cleanup, err
	}
	for _, bin := range []struct {
		name string
		path *string
	}{{"objstored", &bins.Objstored}, {"shardd", &bins.Shardd}} {
		if *bin.path != "" {
			continue
		}
		*bin.path = filepath.Join(dir, bin.name)
		cmd := exec.Command("go", "build", "-o", *bin.path, "repro/cmd/"+bin.name)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			os.RemoveAll(dir)
			return bins, cleanup, fmt.Errorf("chaos: go build %s: %w", bin.name, err)
		}
	}
	return bins, func() { os.RemoveAll(dir) }, nil
}

// Every shard of a chaos fleet, hosted or forked, and the checker's
// reference replica train one deterministic model: the data and weight
// seed, and the training batch size.
const (
	fleetSeed  = 7
	fleetBatch = 16
)

// ms converts a campaign's millisecond field to a duration.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// storeNode is one object-store member: a real TCP server (in-process
// or forked) plus its two shims. Disk-backed nodes keep their data
// directory so a killed store restarts from its on-disk log — at the
// SAME address, because the observer and every client hold the raw
// address, not a name.
type storeNode struct {
	addr  string // the real server address (unshimmed); stable across restarts
	srv   *objstore.Server
	proc  *child
	dir   string              // disk backend data directory ("" for mem)
	disk  *objstore.DiskStore // in-process disk backend (Crash hook)
	alive bool
}

// shardNode is one shard agent: host (or forked shardd), its direct
// control address, and liveness.
type shardNode struct {
	host  *shardhost.Host
	proc  *child
	addr  string // direct control-plane address (unshimmed)
	alive bool
}

// replicaNode is one serving replica plus every link it owns: its
// announce-plane shim (replica -> announcer) and its own per-store
// data-plane shims (replica -> store i). Partitioning a replica means
// partitioning all of them — the replica drops off both planes while
// the write path keeps committing.
type replicaNode struct {
	rep        *serve.Replica
	store      objstore.Store // routed through storeShims; replica reads only
	annShim    *Proxy
	storeShims []*Proxy
}

// Fleet is a running chaos topology. The link layout:
//
//	shard agents  --[StoreShim(i)]-->  store i      (data plane, shared per store)
//	controller    --[CtrlStoreShim(i)]--> store i   (leader's own store links)
//	controller    --[AgentShim(s)]-->  shard s      (control plane)
//	replica r     --[replica shims]--> announcer + every store   (read plane)
//
// The shard-side shim addresses are the fleet's canonical routing names:
// every RoutedStore in the system (agents' own, the controller's, the
// observer's) is built over the same name set, so key placement agrees
// everywhere even though each role reaches the backends over different
// wires. The observer store and the invariant checker's agent probes
// bypass every shim — faults never blind the checker.
type Fleet struct {
	jobID    string
	spec     FleetSpec // defaulted
	run      RunnerConfig
	dataRoot string // the disk backend's temp directory, removed on Close

	stores     []*storeNode
	storeShims []*Proxy // shard-side; Addr() is the canonical routing name
	ctrlShims  []*Proxy // controller-side
	agentShims []*Proxy
	shards     []*shardNode

	ctrlStore objstore.Store // routed through ctrlShims; controller + lease register
	observer  objstore.Store // routed direct; the checker's truth

	announcer *ctrl.Announcer // fleet-owned; survives controller failover
	replicas  []*replicaNode

	ctl *ctrl.Controller

	hookMu       sync.Mutex
	afterPrepare func()
	afterCommit  func()
}

// NewFleet stands the topology up for job jobID, shaped by spec and
// hosted as rcfg says (in-process or forked): stores, shims, shard
// agents. No controller yet — call Lead. It validates the spec and
// fills in its defaults (see FleetSpec) before anything starts.
func NewFleet(jobID string, spec FleetSpec, rcfg RunnerConfig) (*Fleet, error) {
	if jobID == "" {
		return nil, errors.New("chaos: fleet requires a job ID")
	}
	if spec.Shards <= 0 {
		spec.Shards = 1
	}
	if spec.Stores <= 0 {
		spec.Stores = 1
	}
	if spec.OpTimeoutMs <= 0 {
		spec.OpTimeoutMs = 5000
	}
	if spec.LeaseTTLMs <= 0 {
		spec.LeaseTTLMs = 1000
	}
	if spec.Policy == "" {
		spec.Policy = ckpt.PolicyOneShot.String()
	}
	if _, err := ckpt.ParsePolicy(spec.Policy); err != nil {
		return nil, err
	}
	switch spec.StoreBackend {
	case "":
		spec.StoreBackend = "mem"
		if rcfg.DiskStores {
			spec.StoreBackend = "disk"
		}
	case "mem", "disk":
	default:
		return nil, fmt.Errorf("chaos: unknown store backend %q (want mem or disk)", spec.StoreBackend)
	}
	switch {
	case spec.StoreBackend == "mem" && spec.DiskPutDelayMs != 0:
		return nil, errors.New("chaos: disk_put_delay_ms needs the disk store backend, not mem")
	case spec.StoreBackend == "mem" && spec.DiskSyncDelayMs != 0:
		return nil, errors.New("chaos: disk_sync_delay_ms needs the disk store backend, not mem")
	}
	if spec.Fsync == "" {
		spec.Fsync = "always"
	}
	if _, _, err := objstore.ParseFsync(spec.Fsync); err != nil {
		return nil, err
	}
	if rcfg.Procs && (rcfg.Bins.Objstored == "" || rcfg.Bins.Shardd == "") {
		return nil, errors.New("chaos: process-mode fleet requires Bins.Objstored and Bins.Shardd")
	}
	if rcfg.Logf == nil {
		rcfg.Logf = func(string, ...any) {}
	}
	f := &Fleet{jobID: jobID, spec: spec, run: rcfg}
	var err error
	fail := func(err error) (*Fleet, error) {
		f.Close()
		return nil, err
	}

	// Store plane: M servers, each behind a shard-side and a
	// controller-side shim.
	if spec.StoreBackend == "disk" {
		if f.dataRoot, err = os.MkdirTemp("", "chaos-fleet-"); err != nil {
			return fail(fmt.Errorf("chaos: fleet data root: %w", err))
		}
	}
	for i := 0; i < spec.Stores; i++ {
		sn := &storeNode{}
		if spec.StoreBackend == "disk" {
			sn.dir = filepath.Join(f.dataRoot, fmt.Sprintf("store-%d", i))
		}
		if err := f.startStore(sn, i, false); err != nil {
			return fail(err)
		}
		f.stores = append(f.stores, sn)
		shim, err := NewProxy(fmt.Sprintf("store:%d", i), "127.0.0.1:0", sn.addr, f.run.Logf)
		if err != nil {
			return fail(err)
		}
		f.storeShims = append(f.storeShims, shim)
		cshim, err := NewProxy(fmt.Sprintf("ctrlstore:%d", i), "127.0.0.1:0", sn.addr, f.run.Logf)
		if err != nil {
			return fail(err)
		}
		f.ctrlShims = append(f.ctrlShims, cshim)
	}

	// The controller's store and the observer's store route over the
	// canonical names (shard-side shim addresses) but reach the backends
	// over their own wires.
	if f.ctrlStore, err = f.routedVia(func(i int) string { return f.ctrlShims[i].Addr() }); err != nil {
		return fail(err)
	}
	if f.observer, err = f.routedVia(func(i int) string { return f.stores[i].addr }); err != nil {
		return fail(err)
	}

	// Shard agents, each fronted by a control-plane shim.
	for s := 0; s < spec.Shards; s++ {
		sn := &shardNode{}
		if err := f.startShard(sn, s); err != nil {
			return fail(err)
		}
		f.shards = append(f.shards, sn)
		shim, err := NewProxy(fmt.Sprintf("agent:%d", s), "127.0.0.1:0", sn.addr, f.run.Logf)
		if err != nil {
			return fail(err)
		}
		f.agentShims = append(f.agentShims, shim)
	}

	// Read plane: one deployment-owned announcer, then per-replica shims
	// over both its links and the replica itself.
	if spec.Replicas > 0 {
		if f.announcer, err = ctrl.NewAnnouncer("127.0.0.1:0", jobID, f.run.Logf); err != nil {
			return fail(fmt.Errorf("chaos: announcer: %w", err))
		}
		for r := 0; r < spec.Replicas; r++ {
			if err := f.startReplica(r); err != nil {
				return fail(err)
			}
		}
	}
	return f, nil
}

// startReplica stands replica r up behind its own announce-plane and
// data-plane shims. The replica's routed store uses the fleet's
// canonical backend names (so key placement agrees with every writer)
// but dials over the replica's private shims — partitioning replica r
// touches nobody else's links.
func (f *Fleet) startReplica(r int) error {
	rn := &replicaNode{}
	annShim, err := NewProxy(fmt.Sprintf("replica:%d:announce", r), "127.0.0.1:0", f.announcer.Addr(), f.run.Logf)
	if err != nil {
		return err
	}
	rn.annShim = annShim
	for i, sn := range f.stores {
		shim, err := NewProxy(fmt.Sprintf("replica:%d:store:%d", r, i), "127.0.0.1:0", sn.addr, f.run.Logf)
		if err != nil {
			rn.close()
			return err
		}
		rn.storeShims = append(rn.storeShims, shim)
	}
	if rn.store, err = f.routedVia(func(i int) string { return rn.storeShims[i].Addr() }); err != nil {
		rn.close()
		return err
	}
	rn.rep, err = serve.Start(serve.Config{
		JobID:        f.jobID,
		Store:        rn.store,
		AnnounceAddr: rn.annShim.Addr(),
		ResyncEvery:  250 * time.Millisecond,
		Logf:         f.run.Logf,
	})
	if err != nil {
		rn.close()
		return fmt.Errorf("chaos: replica %d: %w", r, err)
	}
	f.replicas = append(f.replicas, rn)
	return nil
}

func (rn *replicaNode) close() {
	if rn.rep != nil {
		rn.rep.Close()
	}
	if rn.store != nil {
		rn.store.Close()
	}
	if rn.annShim != nil {
		rn.annShim.Close()
	}
	for _, p := range rn.storeShims {
		p.Close()
	}
}

// routedVia builds a RoutedStore over the canonical backend names, each
// backend dialed at the address dialAddr(i) chooses.
func (f *Fleet) routedVia(dialAddr func(i int) string) (objstore.Store, error) {
	backends := make([]objstore.Backend, len(f.stores))
	for i := range f.stores {
		cl, err := objstore.Dial(dialAddr(i), objstore.ClientConfig{PoolSize: 4})
		if err != nil {
			return nil, fmt.Errorf("chaos: dial store %d: %w", i, err)
		}
		backends[i] = objstore.Backend{Name: f.storeShims[i].Addr(), Store: cl}
	}
	return objstore.NewRouted(backends)
}

// storeSpec is what shard agents dial: every shard-side shim, routed.
func (f *Fleet) storeSpec() string {
	spec := ""
	for i, shim := range f.storeShims {
		if i > 0 {
			spec += ","
		}
		spec += shim.Addr()
	}
	return spec
}

// startStore launches store i. On restart the server must rebind the
// node's original address: the observer, the routed clients, and both
// shims all hold the raw address, so a restarted store that moved would
// silently drop out of the fleet.
func (f *Fleet) startStore(sn *storeNode, i int, restart bool) error {
	bind := "127.0.0.1:0"
	if restart {
		bind = sn.addr
	}
	if f.run.Procs {
		args := []string{"-addr", bind, "-stats", "0"}
		if sn.dir != "" {
			args = append(args,
				"-data-dir", sn.dir,
				"-fsync", f.spec.Fsync,
			)
			if f.spec.DiskPutDelayMs > 0 {
				args = append(args, "-put-delay", ms(f.spec.DiskPutDelayMs).String())
			}
			if f.spec.DiskSyncDelayMs > 0 {
				args = append(args, "-sync-delay", ms(f.spec.DiskSyncDelayMs).String())
			}
		}
		// On restart the fixed port may be momentarily unavailable; a
		// failed bind makes the child exit before printing its address.
		var ch *child
		var err error
		for attempt := 0; ; attempt++ {
			ch, err = startChild(f.run.Logf, fmt.Sprintf("objstored[%d]", i), f.run.Bins.Objstored, args...)
			if err == nil || !restart || attempt >= 10 {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			return err
		}
		sn.proc, sn.addr, sn.alive = ch, ch.addr, true
		return nil
	}
	var backend objstore.Store
	if sn.dir != "" {
		policy, interval, err := objstore.ParseFsync(f.spec.Fsync)
		if err != nil {
			return err
		}
		ds, err := objstore.NewDiskStore(objstore.DiskConfig{
			Dir:          sn.dir,
			Fsync:        policy,
			SyncInterval: interval,
			PutDelay:     ms(f.spec.DiskPutDelayMs),
			SyncDelay:    ms(f.spec.DiskSyncDelayMs),
			Logf:         f.run.Logf,
		})
		if err != nil {
			return fmt.Errorf("chaos: store %d disk backend: %w", i, err)
		}
		sn.disk = ds
		backend = ds
	} else {
		backend = objstore.NewMemStore(objstore.MemConfig{})
	}
	// A restart rebinds an address the dead listener just vacated; give
	// the kernel a beat if the port is momentarily in transition.
	var srv *objstore.Server
	var err error
	for attempt := 0; ; attempt++ {
		srv, err = objstore.NewServer(bind, backend, objstore.ServerConfig{})
		if err == nil || !restart || attempt >= 50 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("chaos: store %d listen %s: %w", i, bind, err)
	}
	sn.srv, sn.addr, sn.alive = srv, srv.Addr(), true
	return nil
}

// KillStore crashes store i without any flush: SIGKILL in process
// mode, listener teardown plus DiskStore.Crash in-process. Only valid
// for disk-backed fleets — killing a MemStore is unrecoverable data
// loss, not a crash.
func (f *Fleet) KillStore(i int) error {
	sn := f.stores[i]
	if sn.dir == "" {
		return fmt.Errorf("chaos: kill-store requires the disk store backend")
	}
	if !sn.alive {
		return nil
	}
	if sn.proc != nil {
		sn.proc.kill()
		sn.proc = nil
	} else {
		sn.srv.Close()
		sn.srv = nil
		sn.disk.Crash()
		sn.disk = nil
	}
	sn.alive = false
	f.run.Logf("chaos: killed store %d", i)
	return nil
}

// RestartStore brings a killed store back from its on-disk log at its
// original address and drops stale shim connections so clients
// re-dial.
func (f *Fleet) RestartStore(i int) error {
	sn := f.stores[i]
	if sn.alive {
		return fmt.Errorf("chaos: store %d is already running", i)
	}
	if err := f.startStore(sn, i, true); err != nil {
		return err
	}
	f.storeShims[i].DropConns()
	f.ctrlShims[i].DropConns()
	for _, rn := range f.replicas {
		rn.storeShims[i].DropConns()
	}
	f.run.Logf("chaos: restarted store %d at %s from %s", i, sn.addr, sn.dir)
	return nil
}

// AllStoresAlive reports whether every store is up — the gate for
// store-side invariant checks (a dead store makes observer reads fail
// by design, not by bug).
func (f *Fleet) AllStoresAlive() bool {
	for _, sn := range f.stores {
		if !sn.alive {
			return false
		}
	}
	return true
}

// startShard starts shard s, the first time and after a kill alike: an
// agent always resumes from the store, and an empty store is a fresh job.
func (f *Fleet) startShard(sn *shardNode, s int) error {
	if f.run.Procs {
		args := []string{
			"-addr", "127.0.0.1:0",
			"-store", f.storeSpec(),
			"-job", f.jobID,
			"-shard", fmt.Sprint(s),
			"-shards", fmt.Sprint(f.spec.Shards),
			"-seed", fmt.Sprint(fleetSeed),
			"-batch", fmt.Sprint(fleetBatch),
			"-policy", f.spec.Policy,
			"-keep", fmt.Sprint(f.spec.KeepLast),
			"-op-timeout", ms(f.spec.OpTimeoutMs).String(),
			"-connect-wait", "10s",
		}
		ch, err := startChild(f.run.Logf, fmt.Sprintf("shardd[%d]", s), f.run.Bins.Shardd, args...)
		if err != nil {
			return err
		}
		sn.proc, sn.addr, sn.alive = ch, ch.addr, true
		return nil
	}
	policy, err := ckpt.ParsePolicy(f.spec.Policy)
	if err != nil {
		return err
	}
	host, err := shardhost.Start(shardhost.Config{
		JobID:       f.jobID,
		Shard:       s,
		Shards:      f.spec.Shards,
		StoreAddr:   f.storeSpec(),
		Seed:        fleetSeed,
		BatchSize:   fleetBatch,
		Engine:      ckpt.Config{Policy: policy, KeepLast: f.spec.KeepLast},
		OpTimeout:   ms(f.spec.OpTimeoutMs),
		ConnectWait: 10 * time.Second,
		Logf:        f.run.Logf,
	})
	if err != nil {
		return fmt.Errorf("chaos: shard %d: %w", s, err)
	}
	sn.host, sn.addr, sn.alive = host, host.Addr(), true
	return nil
}

// --- fault surface -------------------------------------------------

// StoreShim returns store i's shard-side shim (the data-plane link all
// agents share to that store).
func (f *Fleet) StoreShim(i int) *Proxy { return f.storeShims[i] }

// CtrlStoreShim returns store i's controller-side shim (the leader's
// own store link, including the lease register when i is the anchor).
func (f *Fleet) CtrlStoreShim(i int) *Proxy { return f.ctrlShims[i] }

// AgentShim returns shard s's control-plane shim (controller -> agent).
func (f *Fleet) AgentShim(s int) *Proxy { return f.agentShims[s] }

// AnchorStore returns the index of the store the control keys (lease
// register, membership) are pinned to: the smallest canonical name.
func (f *Fleet) AnchorStore() int {
	anchor := 0
	for i := 1; i < len(f.storeShims); i++ {
		if f.storeShims[i].Addr() < f.storeShims[anchor].Addr() {
			anchor = i
		}
	}
	return anchor
}

// Stores and Shards report the topology size.
func (f *Fleet) Stores() int { return len(f.stores) }
func (f *Fleet) Shards() int { return len(f.shards) }

// Replicas reports the serving-replica count.
func (f *Fleet) Replicas() int { return len(f.replicas) }

// ReplicaShims returns every link replica r owns — its announce-plane
// shim plus its per-store data-plane shims. Faulting all of them is
// "partition the replica".
func (f *Fleet) ReplicaShims(r int) []*Proxy {
	rn := f.replicas[r]
	out := []*Proxy{rn.annShim}
	out = append(out, rn.storeShims...)
	return out
}

// ReplicaServed reports replica r's currently-served checkpoint
// (-1, 0 before the first sync completes).
func (f *Fleet) ReplicaServed(r int) (int, uint64) { return f.replicas[r].rep.Served() }

// ReplicaStats reports replica r's sync counters.
func (f *Fleet) ReplicaStats(r int) serve.Stats { return f.replicas[r].rep.Stats() }

// ReplicaAddr returns replica r's lookup address. The checker dials it
// directly — the lookup link itself is never degraded, only the
// replica's announce and store links are.
func (f *Fleet) ReplicaAddr(r int) string { return f.replicas[r].rep.Addr() }

// ShardAlive reports whether shard s is currently running.
func (f *Fleet) ShardAlive(s int) bool { return f.shards[s].alive }

// Observer returns the unshimmed routed store the invariant checker
// reads ground truth through. It routes identically to the fleet's own
// stores but its links never carry injected faults.
func (f *Fleet) Observer() objstore.Store { return f.observer }

// KillShard crashes shard s: SIGKILL in process mode, Host.Kill
// in-process. Nothing is rolled back — in-flight attempts leave debris,
// like a real crash.
func (f *Fleet) KillShard(s int) {
	sn := f.shards[s]
	if !sn.alive {
		return
	}
	if sn.proc != nil {
		sn.proc.kill()
		sn.proc = nil
	} else if sn.host != nil {
		sn.host.Kill()
		sn.host = nil
	}
	sn.alive = false
	f.run.Logf("chaos: killed shard %d", s)
}

// RestartShard brings a killed shard back: the replayed engine state
// comes from the store's manifests, and the agent shim is
// retargeted at the new process's address so the fleet-facing address
// never changes.
func (f *Fleet) RestartShard(s int) error {
	sn := f.shards[s]
	if sn.alive {
		return fmt.Errorf("chaos: shard %d is already running", s)
	}
	if err := f.startShard(sn, s); err != nil {
		return err
	}
	f.agentShims[s].SetTarget(sn.addr)
	f.agentShims[s].DropConns()
	f.run.Logf("chaos: restarted shard %d at %s", s, sn.addr)
	return nil
}

// --- controller ----------------------------------------------------

func (f *Fleet) register(holder string) (*ctrl.Register, error) {
	return ctrl.NewRegister(ctrl.RegisterConfig{
		JobID:  f.jobID,
		Store:  f.ctrlStore,
		Holder: holder,
		TTL:    ms(f.spec.LeaseTTLMs),
		Settle: 2 * time.Millisecond,
	})
}

func (f *Fleet) newController(lease *ctrl.Lease, holder string) error {
	agents := make([]string, len(f.agentShims))
	for s, shim := range f.agentShims {
		agents[s] = shim.Addr()
	}
	c, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID:        f.jobID,
		Store:        f.ctrlStore,
		Agents:       agents,
		Lease:        lease,
		Announcer:    f.announcer,
		Logf:         f.run.Logf,
		AfterPrepare: func() { f.fire(&f.afterPrepare) },
		AfterCommit:  func() { f.fire(&f.afterCommit) },
	})
	if err != nil {
		return fmt.Errorf("chaos: controller %q: %w", holder, err)
	}
	f.ctl = c
	return nil
}

// Lead elects holder as the leader: acquires the lease and discovers
// the fleet through the shims.
func (f *Fleet) Lead(ctx context.Context, holder string) error {
	reg, err := f.register(holder)
	if err != nil {
		return err
	}
	lease, err := reg.Acquire(ctx, 0)
	if err != nil {
		return fmt.Errorf("chaos: %q acquire lease: %w", holder, err)
	}
	return f.newController(lease, holder)
}

// Failover silently abandons the current leader (no lease release — it
// "died") and promotes holder, who must wait out the TTL exactly like a
// real standby.
func (f *Fleet) Failover(ctx context.Context, holder string) error {
	if f.ctl != nil {
		f.ctl.Close()
		f.ctl = nil
	}
	reg, err := f.register(holder)
	if err != nil {
		return err
	}
	lease, err := reg.WaitAcquire(ctx)
	if err != nil {
		return fmt.Errorf("chaos: %q takeover: %w", holder, err)
	}
	return f.newController(lease, holder)
}

// Checkpoint drives one composite checkpoint through the current
// leader.
func (f *Fleet) Checkpoint(ctx context.Context, step uint64) (*wire.Manifest, error) {
	if f.ctl == nil {
		return nil, errors.New("chaos: no leader; call Lead first")
	}
	return f.ctl.Checkpoint(ctx, step)
}

// SetAfterPrepare arms a one-shot hook that fires between the next
// checkpoint's prepare and publish phases — the window where a fault
// must cause an abort, never a restorable composite.
func (f *Fleet) SetAfterPrepare(fn func()) {
	f.hookMu.Lock()
	f.afterPrepare = fn
	f.hookMu.Unlock()
}

// SetAfterCommit arms a one-shot hook that fires after the next
// composite manifest lands, before agents finalize — the window where a
// fault must NOT invalidate the checkpoint.
func (f *Fleet) SetAfterCommit(fn func()) {
	f.hookMu.Lock()
	f.afterCommit = fn
	f.hookMu.Unlock()
}

func (f *Fleet) fire(slot *func()) {
	f.hookMu.Lock()
	fn := *slot
	*slot = nil
	f.hookMu.Unlock()
	if fn != nil {
		fn()
	}
}

// AgentStatus probes shard s's agent over a direct, unshimmed
// connection — the checker's view is never degraded by the faults under
// test.
func (f *Fleet) AgentStatus(ctx context.Context, s int) (*ctrl.StatusReply, error) {
	sn := f.shards[s]
	if !sn.alive {
		return nil, fmt.Errorf("chaos: shard %d is dead", s)
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	cl := ctrl.NewClient(sn.addr, 5*time.Second)
	defer cl.Close()
	return cl.Status(ctx)
}

// Close tears the whole topology down.
func (f *Fleet) Close() {
	if f.ctl != nil {
		f.ctl.Close()
	}
	for _, rn := range f.replicas {
		rn.close()
	}
	if f.announcer != nil {
		f.announcer.Close()
	}
	for _, sn := range f.shards {
		if sn.proc != nil {
			sn.proc.kill()
		}
		if sn.host != nil {
			sn.host.Close()
		}
	}
	for _, shims := range [][]*Proxy{f.agentShims, f.storeShims, f.ctrlShims} {
		for _, p := range shims {
			p.Close()
		}
	}
	if f.ctrlStore != nil {
		f.ctrlStore.Close()
	}
	if f.observer != nil {
		f.observer.Close()
	}
	for _, sn := range f.stores {
		if sn.proc != nil {
			sn.proc.kill()
		}
		if sn.srv != nil {
			sn.srv.Close()
		}
		if sn.disk != nil {
			sn.disk.Close()
		}
	}
	if f.dataRoot != "" {
		os.RemoveAll(f.dataRoot)
	}
}

// --- forked children -----------------------------------------------

// child is a forked daemon whose first stdout line is its bound
// address (the objstored/shardd convention).
type child struct {
	name string
	cmd  *exec.Cmd
	addr string
}

func startChild(logf func(format string, args ...any), name, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logf("%s: %s", name, sc.Text())
		}
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			addrCh <- sc.Text()
		}
		close(addrCh)
		for sc.Scan() {
			logf("%s: %s", name, sc.Text())
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("chaos: %s exited before printing its address", name)
		}
		return &child{name: name, cmd: cmd, addr: addr}, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("chaos: %s did not print an address within 30s", name)
	}
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill() {
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	c.cmd.Wait()
}
