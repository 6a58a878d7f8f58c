package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trainer"
	"repro/internal/wire"
)

const (
	jobID    = "cnrbench"
	shards   = 2
	keepLast = 3
	// opTimeout bounds any single wait of the harness (a commit, a
	// restore, a replica catching up), so a wedged fleet fails the run
	// instead of hanging it.
	opTimeout = 60 * time.Second
)

// committed is the reference for one committed checkpoint: the full
// snapshot it was cut from.
type committed struct {
	id   int
	snap *ckpt.Snapshot
}

// fleet is the whole system under test in one process, every hop over
// loopback TCP: objstore servers, two shard agents, a leased controller
// with its announcer, and one serving replica.
type fleet struct {
	wl  *workload
	sc  scale
	rec *recorder
	rng *rand.Rand

	m       *model.DLRM
	cluster *trainer.Cluster
	gen     *data.Generator
	assign  map[int]int
	// hot is each table's fixed hot row set; grads the pool of gradient
	// vectors the update generator cycles through.
	hot   map[int][]int
	grads []tensor.Vector
	// seen[table][row] is the last interval (tick) that updated the row.
	seen map[int][]uint32
	tick uint32

	dataDir   string
	disks     []*objstore.DiskStore
	backends  []objstore.Store
	servers   []*objstore.Server
	storeSpec string
	conns     []objstore.Store

	agents     []*ctrl.Agent
	agentSrvs  []*ctrl.AgentServer
	announcer  *ctrl.Announcer
	lease      *ctrl.Lease
	controller *ctrl.Controller
	replica    *serve.Replica

	// handoff is the snapshot the driver cut for the checkpoint in
	// flight; each agent's SnapshotSource carves its shard out of it.
	handoff atomic.Pointer[ckpt.Snapshot]
	// refs holds the last few committed snapshots for lookup
	// verification, indexed by checkpoint ID modulo its length.
	refs [4]atomic.Pointer[committed]

	baselineBytes int64
	bootstrap     time.Duration
}

// modelConfig is the one model every workload trains.
func modelConfig(sc scale, seed int64) (model.Config, data.Spec) {
	mcfg := model.DefaultConfig()
	mcfg.Seed = seed
	mcfg.EmbedDim = sc.dim
	mcfg.Tables = nil
	for _, rows := range sc.tableRows {
		mcfg.Tables = append(mcfg.Tables, embedding.TableSpec{Rows: rows, Dim: sc.dim})
	}
	spec := data.DefaultSpec()
	spec.Seed = seed
	spec.TableRows = append([]int(nil), sc.tableRows...)
	return mcfg, spec
}

// connect opens one component's own store connection and taps it.
func (f *fleet) connect(who role) (*tapStore, error) {
	s, err := objstore.Connect(f.storeSpec, objstore.ClientConfig{})
	if err != nil {
		return nil, fmt.Errorf("connect %s: %w", roleNames[who], err)
	}
	f.conns = append(f.conns, s)
	return f.rec.tap(s, who), nil
}

// setupFleet brings the fleet up, trains one warm-up interval, commits
// the baseline full checkpoint (ID 0) and waits until the replica
// serves it. What it returns is what the measured phase starts from.
func setupFleet(o runOpts, rec *recorder) (f *fleet, err error) {
	wl, sc, seed, outDir := o.wl, o.sc, o.seed, o.outDir
	f = &fleet{wl: wl, sc: sc, rec: rec, rng: rand.New(rand.NewSource(seed))}
	defer func() {
		if err != nil {
			f.Close()
			f = nil
		}
	}()

	mcfg, spec := modelConfig(sc, seed)
	if f.m, err = model.New(mcfg, shards); err != nil {
		return f, err
	}
	if f.cluster, err = trainer.New(f.m, trainer.Config{Nodes: shards}); err != nil {
		return f, err
	}
	if f.gen, err = data.NewGenerator(spec); err != nil {
		return f, err
	}
	f.assign = f.cluster.TableAssignment()
	f.hot, f.seen = make(map[int][]int), make(map[int][]uint32)
	for _, t := range f.m.Sparse.Tables {
		f.hot[t.ID] = f.rng.Perm(t.Rows)[:f.updatesPerTable(t)]
		f.seen[t.ID] = make([]uint32, t.Rows)
	}
	for i := 0; i < 64; i++ {
		g := make(tensor.Vector, sc.dim)
		for j := range g {
			g[j] = float32(f.rng.NormFloat64())
		}
		f.grads = append(f.grads, g)
	}

	// Store plane.
	if wl.disk {
		if err = os.MkdirAll(outDir, 0o755); err != nil {
			return f, err
		}
		if f.dataDir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return f, err
		}
	}
	var addrs []string
	for i := 0; i < wl.stores; i++ {
		var backend objstore.Store
		if wl.disk {
			ds, derr := objstore.NewDiskStore(objstore.DiskConfig{
				Dir:   fmt.Sprintf("%s/store-%d", f.dataDir, i),
				Fsync: wl.fsync,
			})
			if derr != nil {
				return f, derr
			}
			f.disks = append(f.disks, ds)
			backend = ds
		} else {
			backend = objstore.NewMemStore(objstore.MemConfig{})
		}
		f.backends = append(f.backends, backend)
		srv, serr := listenStore(i, &tapBackend{inner: backend, rec: rec, server: uint8(i)})
		if serr != nil {
			return f, serr
		}
		f.servers = append(f.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	f.storeSpec = strings.Join(addrs, ",")

	// Shard agents: each owns a store connection and serves the
	// control protocol; its snapshots come from the driver's handoff.
	var agentAddrs []string
	for s := 0; s < shards; s++ {
		store, cerr := f.connect(roleAgent)
		if cerr != nil {
			return f, cerr
		}
		shard := s
		agent, aerr := ctrl.NewAgent(ctrl.AgentConfig{
			JobID:  jobID,
			Shard:  shard,
			Shards: shards,
			Engine: f.engineConfig(store),
			Logf:   o.logf,
			Source: func(_ context.Context, step uint64) (*ckpt.Snapshot, error) {
				snap := f.handoff.Load()
				if snap == nil || snap.Step != step {
					return nil, fmt.Errorf("no snapshot handed off for step %d", step)
				}
				return ckpt.SubSnapshot(snap, f.assign, shard), nil
			},
		})
		if aerr != nil {
			return f, aerr
		}
		f.agents = append(f.agents, agent)
		srv, serr := ctrl.NewAgentServer("127.0.0.1:0", agent)
		if serr != nil {
			return f, serr
		}
		f.agentSrvs = append(f.agentSrvs, srv)
		agentAddrs = append(agentAddrs, srv.Addr())
	}

	// Controller under a lease, announcing commits. It keeps every
	// composite manifest: with composite retention on, the controller
	// deletes an old manifest just as the announced replica lists and
	// fetches them, the replica's whole sync pass fails on the missing
	// key, and that checkpoint's freshness becomes the 2 s resync tick.
	// Shard engines still retain keepLast, so storage stays bounded.
	cstore, err := f.connect(roleController)
	if err != nil {
		return f, err
	}
	reg, err := ctrl.NewRegister(ctrl.RegisterConfig{JobID: jobID, Store: cstore, Holder: "cnrbench"})
	if err != nil {
		return f, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if f.lease, err = reg.Acquire(ctx, 0); err != nil {
		return f, err
	}
	if f.announcer, err = ctrl.NewAnnouncer("127.0.0.1:0", jobID, o.logf); err != nil {
		return f, err
	}
	f.controller, err = ctrl.NewController(ctrl.ControllerConfig{
		JobID:     jobID,
		Store:     cstore,
		Agents:    agentAddrs,
		Lease:     f.lease,
		Announcer: f.announcer,
		Logf:      o.logf,
	})
	if err != nil {
		return f, err
	}

	// Warm-up interval and the baseline full checkpoint.
	f.trainInterval()
	snap, _, err := f.snapshot()
	if err != nil {
		return f, err
	}
	f.baselineBytes = snap.SizeBytes()
	if _, _, err = f.commit(ctx, snap); err != nil {
		return f, fmt.Errorf("baseline checkpoint: %w", err)
	}

	// Serving replica: bootstraps from the baseline.
	rstore, err := f.connect(roleReplica)
	if err != nil {
		return f, err
	}
	began := time.Now()
	f.replica, err = serve.Start(serve.Config{JobID: jobID, Store: rstore, AnnounceAddr: f.announcer.Addr(), Logf: o.logf})
	if err != nil {
		return f, err
	}
	for {
		if id, _ := f.replica.Served(); id >= 0 {
			break
		}
		if time.Since(began) > opTimeout {
			return f, errors.New("replica never served the baseline checkpoint")
		}
		time.Sleep(200 * time.Microsecond)
	}
	f.bootstrap = time.Since(began)
	return f, nil
}

// listenStore serves backend as store i on a fixed port. The routed
// client names a backend by its address and hashes keys over the names,
// so with ports the kernel picks the same key would land on a different
// DiskStore from run to run, and with ~10 Puts per commit that moves
// the commit time. A taken port only shifts the choice.
func listenStore(i int, backend objstore.Store) (*objstore.Server, error) {
	const basePort, tries = 27100, 64
	var srv *objstore.Server
	var err error
	for try := 0; try < tries; try++ {
		addr := fmt.Sprintf("127.0.0.1:%d", basePort+i+8*try)
		if srv, err = objstore.NewServer(addr, backend, objstore.ServerConfig{}); err == nil {
			return srv, nil
		}
	}
	return nil, fmt.Errorf("store %d: no free port in %d tries: %w", i, tries, err)
}

// engineConfig sets only what a workload chooses; everything else stays
// at the product's defaults.
func (f *fleet) engineConfig(store objstore.Store) ckpt.Config {
	return ckpt.Config{JobID: jobID, Store: store, Policy: f.wl.policy, Quant: f.wl.quant, KeepLast: keepLast}
}

func (f *fleet) updatesPerTable(t *embedding.Table) int {
	return max(2, int(f.wl.updateFrac*float64(t.Rows)))
}

// trainInterval is one checkpoint interval of training: one real
// cluster step (dense and reader state move), then the sparse-update
// generator touches updateFrac of every table's rows, half drawn from
// the table's hot set and half from the whole table. The rows of one
// interval are distinct, so every interval modifies the same number of
// rows whatever the seed and the byte ratios do not depend on it.
func (f *fleet) trainInterval() (step, update time.Duration) {
	t0 := time.Now()
	f.cluster.Step(f.gen.NextBatch(f.sc.batch))
	t1 := time.Now()
	lr := f.m.Config().LRSparse
	f.tick++
	for _, t := range f.m.Sparse.Tables {
		n := f.updatesPerTable(t)
		hot, seen := f.hot[t.ID], f.seen[t.ID]
		for i := 0; i < n; i++ {
			var row int
			if i < n/2 {
				// A partial shuffle of the hot set picks without repeats.
				j := i + f.rng.Intn(len(hot)-i)
				hot[i], hot[j] = hot[j], hot[i]
				row = hot[i]
			} else {
				for row = f.rng.Intn(t.Rows); seen[row] == f.tick; {
					row = f.rng.Intn(t.Rows)
				}
			}
			seen[row] = f.tick
			t.ApplyGrad(row, f.grads[f.rng.Intn(len(f.grads))], lr)
			f.m.Tracker.Mark(t.ID, row)
		}
	}
	return t1.Sub(t0), time.Since(t1)
}

// snapshot stalls training for the atomic copy and reports the stall.
func (f *fleet) snapshot() (*ckpt.Snapshot, time.Duration, error) {
	t0 := time.Now()
	snap, err := f.cluster.Snapshot(data.ReaderState{NextSample: f.gen.Pos(), BatchSize: f.sc.batch})
	return snap, time.Since(t0), err
}

// commit hands snap to the agents and drives one composite checkpoint.
// The snapshot becomes the lookup reference for its ID before any
// replica can serve it.
func (f *fleet) commit(ctx context.Context, snap *ckpt.Snapshot) (*wire.Manifest, time.Duration, error) {
	id := f.controller.NextID()
	f.refs[id%len(f.refs)].Store(&committed{id: id, snap: snap})
	f.handoff.Store(snap)
	t0 := time.Now()
	man, err := f.controller.Checkpoint(ctx, snap.Step)
	d := time.Since(t0)
	if err == nil && man.ID != id {
		err = fmt.Errorf("checkpoint IDs not gapless: got %d, want %d", man.ID, id)
	}
	return man, d, err
}

// reference returns the committed snapshot for id, or nil once it has
// left the ring.
func (f *fleet) reference(id int) *ckpt.Snapshot {
	if id < 0 {
		return nil
	}
	c := f.refs[id%len(f.refs)].Load()
	if c == nil || c.id != id {
		return nil
	}
	return c.snap
}

// liveBytes sums the stored size of every object under the job.
func (f *fleet) liveBytes(ctx context.Context) (int64, error) {
	store, err := f.connect(roleProbe)
	if err != nil {
		return 0, err
	}
	keys, err := store.List(ctx, jobID+"/")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, k := range keys {
		n, err := store.Stat(ctx, k)
		if err != nil {
			return 0, fmt.Errorf("stat %s: %w", k, err)
		}
		total += n
	}
	return total, nil
}

// diskStats sums the segment-log shape over the disk backends.
func (f *fleet) diskStats() (logBytes, compactions int64) {
	for _, d := range f.disks {
		st := d.Stats()
		logBytes += st.LogBytes
		compactions += st.Compactions
	}
	return logBytes, compactions
}

// Close stops every goroutine the fleet started and removes its data
// directory. Safe on a partly built fleet.
func (f *fleet) Close() {
	if f.replica != nil {
		f.replica.Close()
	}
	if f.controller != nil {
		f.controller.Close()
	}
	if f.lease != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = f.lease.Release(ctx) // the store is torn down next; nothing can take the lease over
		cancel()
	}
	if f.announcer != nil {
		f.announcer.Close()
	}
	for _, s := range f.agentSrvs {
		s.Close()
	}
	for _, a := range f.agents {
		a.Close()
	}
	for _, c := range f.conns {
		c.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, b := range f.backends {
		b.Close()
	}
	if f.dataDir != "" {
		os.RemoveAll(f.dataDir)
	}
}

// cumulative tracks the rows modified since each table's last full
// baseline, the way the engine's one-shot family does, so that probes
// can replay exactly the rows a checkpoint stored.
type cumulative map[int]*bitvec.Bitmap

// rowsStored returns the rows of table tm the checkpoint stored, given
// the interval's modified view, and advances the cumulative state.
func (c cumulative) rowsStored(policy ckpt.PolicyKind, tm *wire.TableManifest, modified *bitvec.Bitmap) []int {
	cum := c[tm.TableID]
	if cum == nil {
		cum = bitvec.New(tm.Rows)
		c[tm.TableID] = cum
	}
	if modified != nil {
		cum.Or(modified)
	}
	switch {
	case tm.StoredRows == tm.Rows:
		cum.Reset()
		rows := make([]int, tm.Rows)
		for i := range rows {
			rows[i] = i
		}
		return rows
	case policy == ckpt.PolicyConsecutive:
		if modified == nil {
			return nil
		}
		return modified.Indices()
	default:
		return cum.Indices()
	}
}
