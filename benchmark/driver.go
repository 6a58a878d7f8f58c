package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/wire"
)

// runOpts is one benchmark run.
type runOpts struct {
	wl      *workload
	sc      scale
	seed    int64
	seconds int
	trace   bool
	outDir  string
	// logf, when set, receives the fleet's own diagnostics.
	logf func(format string, args ...any)
}

// interval is everything measured in one checkpoint interval. Times
// are nanoseconds since the recorder's origin.
type interval struct {
	id     int
	traced bool

	start, commitStart, commitEnd, commitAt, servedAt int64

	// probe is what the host probe took just before the interval.
	probe                                time.Duration
	step, update, stall, subsnap, commit time.Duration
	modifiedFrac                         float64
	man                                  *wire.Manifest

	// Traced runs only.
	proc              procSample // resources the interval used, probes excluded
	nullWall, nullCPU time.Duration
	replay            *replayCost
}

// restoreRun is one timed restore of checkpoint id; probe is its
// interval's host probe.
type restoreRun struct {
	id         int
	probe      time.Duration
	start, end int64
	relL2      float64
	bytes      int64
}

// outcome is the raw material of a run's metrics.
type outcome struct {
	opts runOpts
	rec  *recorder

	setups        []time.Duration
	bootstrap     time.Duration
	baselineBytes int64

	commitPhase  [2]int64 // start and end of the commit loop
	intervals    []interval
	writeBytes   int64 // bytes Put by agents and controller during the commit loop
	liveBytes    int64
	userPutBytes int64
	diskLogBytes int64
	compactions  int64
	peakHeap     uint64

	lookups *lookupLoad

	restores      []restoreRun
	localRestores samples // ms
	chainLen      int
	statusRTT     samples // µs

	attempted, failed int64
	failures          []string

	// cuts divides each traced interval into stages; perLayer fills it
	// in and writeTrace draws it.
	cuts []cut
}

// fail counts one failed operation or verification and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.explain(format, args...)
}

// explain adds a reason for failures counted elsewhere.
func (o *outcome) explain(format string, args ...any) {
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// servedWatch polls the replica and stamps the moment it first serves
// each checkpoint ID. The driver is still inside Controller.Checkpoint
// when a small delta lands, so it cannot take that time itself.
type servedWatch struct {
	f    *fleet
	mu   sync.Mutex
	at   []int64 // at[id] = when the replica first served id or newer
	poke chan struct{}
	stop chan struct{}
	done chan struct{}
}

const servedPoll = 200 * time.Microsecond

func watchServed(f *fleet) (*servedWatch, error) {
	pc, err := newPacer()
	if err != nil {
		return nil, err
	}
	w := &servedWatch{f: f, poke: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer pc.close()
		for next := time.Now(); ; next = next.Add(servedPoll) {
			if err := pc.sleepUntil(next); err != nil {
				return // wait() then times out and fails the run
			}
			select {
			case <-w.stop:
				return
			default:
			}
			id, _ := f.replica.Served()
			if id < len(w.at) {
				continue
			}
			now := f.rec.now()
			w.mu.Lock()
			for len(w.at) <= id {
				w.at = append(w.at, now)
			}
			w.mu.Unlock()
			select {
			case w.poke <- struct{}{}:
			default:
			}
		}
	}()
	return w, nil
}

// wait blocks until the replica serves id and returns when it first did.
func (w *servedWatch) wait(id int) (int64, error) {
	deadline := time.After(opTimeout)
	for {
		w.mu.Lock()
		if id < len(w.at) {
			at := w.at[id]
			w.mu.Unlock()
			return at, nil
		}
		w.mu.Unlock()
		select {
		case <-w.poke:
		case <-deadline:
			return 0, fmt.Errorf("replica did not serve checkpoint %d within %v", id, opTimeout)
		}
	}
}

func (w *servedWatch) close() {
	close(w.stop)
	<-w.done
}

// run executes one workload once and returns what it measured. An
// error means the run could not be carried out at all; verification
// failures are counted in the outcome.
func run(o runOpts) (*outcome, error) {
	out := &outcome{opts: o, rec: newRecorder()}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	// Set-up, several times: its median is setup_s. The last fleet is
	// the one measured.
	var f *fleet
	for i := 0; i < o.sc.setups; i++ {
		if f != nil {
			f.Close()
		}
		out.rec = newRecorder()
		t0 := time.Now()
		var err error
		if f, err = setupFleet(o, out.rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer f.Close()
	out.bootstrap, out.baselineBytes = f.bootstrap, f.baselineBytes
	rec := out.rec

	var shade *shadow
	cum := cumulative{}
	if o.trace {
		var err error
		if shade, err = newShadow(f); err != nil {
			return nil, err
		}
		// Bring the shadow engines to where the real ones are: past the
		// baseline full checkpoint.
		base := f.reference(0)
		if _, _, err = shade.write(ctx, base); err != nil {
			return nil, err
		}
	}

	watch, err := watchServed(f)
	if err != nil {
		return nil, err
	}
	defer watch.close()
	if out.lookups, err = startLookups(f, o.seed); err != nil {
		return nil, err
	}
	defer out.lookups.stopAndWait()

	// Lookups alone first: the latency floor.
	time.Sleep(o.sc.static)

	commits, restores := o.sc.counts(o.wl, o.seconds)
	rig, err := newRestoreRig(out, f)
	if err != nil {
		return nil, err
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	pace := o.wl.pace
	if o.sc.pace > 0 && pace > 0 {
		pace = o.sc.pace
	}
	putsBefore := rec.putBytes[roleAgent].Load() + rec.putBytes[roleController].Load()
	loopStart := time.Now()
	out.commitPhase[0] = rec.now()
	for i := 1; i <= commits; i++ {
		if pace > 0 {
			time.Sleep(time.Until(loopStart.Add(time.Duration(i-1) * pace)))
		}
		hostSpeed, err := probe.run()
		if err != nil {
			return nil, err
		}
		iv := interval{traced: o.trace && i%2 == 1, probe: hostSpeed, start: rec.now()}
		var before procSample
		if o.trace {
			before = sampleProc(true)
			out.peakHeap = max(out.peakHeap, before.heapLive)
		}
		rec.tracing.Store(iv.traced)

		iv.step, iv.update = f.trainInterval()
		iv.modifiedFrac = f.m.Tracker.ModifiedFraction()
		snap, stall, err := f.snapshot()
		if err != nil {
			return nil, err
		}
		iv.stall = stall
		if o.trace {
			t0 := time.Now()
			for s := 0; s < shards; s++ {
				ckpt.SubSnapshot(snap, f.assign, s)
			}
			iv.subsnap = time.Since(t0)
		}

		iv.commitStart = rec.now()
		man, d, err := f.commit(ctx, snap)
		iv.commitEnd = rec.now()
		out.attempted++
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i, err)
		}
		iv.id, iv.man, iv.commit, iv.commitAt = man.ID, man, d, rec.commitAt.Load()
		if iv.servedAt, err = watch.wait(man.ID); err != nil {
			return nil, err
		}
		rec.tracing.Store(false)

		if o.trace {
			after := sampleProc(true)
			iv.proc = procSample{
				cpu:     after.cpu - before.cpu,
				mallocs: after.mallocs - before.mallocs,
				allocB:  after.allocB - before.allocB,
				gcPause: after.gcPause - before.gcPause,
			}
			out.peakHeap = max(out.peakHeap, after.heapLive)
			if iv.nullWall, iv.nullCPU, err = shade.write(ctx, snap); err != nil {
				return nil, err
			}
			// Every checkpoint advances the cumulative row sets; every
			// eighth traced one is replayed through the codec.
			replay := iv.traced && i%8 == 1
			if replay {
				iv.replay = &replayCost{}
			}
			for t := range man.Tables {
				tm := &man.Tables[t]
				rows := cum.rowsStored(o.wl.policy, tm, snap.Modified[tm.TableID])
				if len(rows) != tm.StoredRows {
					out.fail("checkpoint %d stored %d rows of table %d, the tracker says %d", man.ID, tm.StoredRows, tm.TableID, len(rows))
				}
				if replay {
					if err := replayRows(snap.Table(tm.TableID), rows, o.wl.quant, iv.replay); err != nil {
						return nil, err
					}
				}
			}
		}
		out.intervals = append(out.intervals, iv)

		// Restores are spread evenly over the commit loop and the last
		// commit always has one, so that their median spans the whole run
		// as the commits' does: this host slows by half for seconds at a
		// time, and a restore phase of its own was often wholly inside
		// such a spell.
		if i*restores/commits > (i-1)*restores/commits {
			rig.restore(ctx, snap, man.ID, hostSpeed, o.trace && i == commits)
		}
	}
	out.commitPhase[1] = rec.now()
	out.writeBytes = rec.putBytes[roleAgent].Load() + rec.putBytes[roleController].Load() - putsBefore
	finalID := f.controller.LatestID()
	final := f.reference(finalID)

	// The last restore ran beside lookups answered from the final
	// checkpoint; a little longer gives verifyTail more of them.
	time.Sleep(300 * time.Millisecond)
	out.lookups.stopAndWait()
	for _, c := range out.lookups.conns {
		out.attempted += int64(len(c.latUs))
		out.failed += int64(c.failed)
		if c.firstErr != nil {
			out.explain("lookup: %v", c.firstErr)
		}
	}

	if out.liveBytes, err = f.liveBytes(ctx); err != nil {
		return nil, err
	}
	for r := roleAgent; r < numRoles; r++ {
		out.userPutBytes += rec.putBytes[r].Load()
	}
	out.diskLogBytes, out.compactions = f.diskStats()

	if o.trace {
		if err := out.probeStatus(ctx, f); err != nil {
			return nil, err
		}
	}
	if err := rig.finish(ctx, final, finalID); err != nil {
		return nil, err
	}

	out.attempted += rec.ops.Load()
	out.failed += rec.errs.Load()
	if n := rec.errs.Load(); n > 0 {
		out.explain("%d store operations failed", n)
	}
	return out, nil
}

// probeStatus times the control plane's smallest round trip.
func (out *outcome) probeStatus(ctx context.Context, f *fleet) error {
	client, err := ctrl.DialAgent(f.agentSrvs[0].Addr(), ctrl.ClientConfig{})
	if err != nil {
		return err
	}
	defer client.Close()
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := client.Status(ctx); err != nil {
			return err
		}
		out.statusRTT = append(out.statusRTT, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return nil
}

// restoreRig restores the newest checkpoint into a differently seeded
// model over TCP and checks the result against the snapshot that
// checkpoint was cut from.
type restoreRig struct {
	out    *outcome
	target *model.DLRM
	fresh  []byte // the target's own dense state, put back before every restore
	store  objstore.Store
	local  *mapStore // traced runs: the objects the last restore fetched
	exact  bool
}

func newRestoreRig(out *outcome, f *fleet) (*restoreRig, error) {
	o := out.opts
	mcfg, _ := modelConfig(o.sc, o.seed+7)
	target, err := model.New(mcfg, shards)
	if err != nil {
		return nil, err
	}
	fresh, err := target.DenseState()
	if err != nil {
		return nil, err
	}
	store, err := f.connect(roleRestorer)
	if err != nil {
		return nil, err
	}
	return &restoreRig{
		out: out, target: target, fresh: fresh, store: store,
		local: &mapStore{objs: make(map[string][]byte)},
		exact: o.wl.quant.Method == quant.MethodNone,
	}, nil
}

// once restores the newest checkpoint from src and verifies it against
// want, the snapshot it was cut from.
func (g *restoreRig) once(ctx context.Context, src objstore.Store, want *ckpt.Snapshot, id int, traced bool) (restoreRun, error) {
	r, err := ckpt.NewRestorer(jobID, src)
	if err != nil {
		return restoreRun{}, err
	}
	// Spoil the target so that a row the restore skips cannot pass.
	nan := float32(math.NaN())
	for _, t := range g.target.Sparse.Tables {
		for i := range t.Weights.Data {
			t.Weights.Data[i] = nan
		}
		for i := range t.Accum {
			t.Accum[i] = nan
		}
	}
	if err := g.target.RestoreDenseState(g.fresh); err != nil {
		return restoreRun{}, err
	}
	rec := g.out.rec
	rec.tracing.Store(traced)
	run := restoreRun{id: id, start: rec.now()}
	res, err := r.RestoreLatest(ctx, g.target)
	run.end = rec.now()
	rec.tracing.Store(false)
	if err != nil {
		return run, err
	}
	run.bytes = res.BytesRead
	run.relL2, err = checkRestore(res, g.target, want, g.exact)
	return run, err
}

// restore is one timed restore over TCP of checkpoint id, which was cut
// from want. A failure is counted, not returned. With capture, what it
// fetches is kept for finish to replay.
func (g *restoreRig) restore(ctx context.Context, want *ckpt.Snapshot, id int, probe time.Duration, capture bool) {
	src := g.store
	if capture {
		src = &captureStore{Store: g.store, into: g.local}
	}
	run, err := g.once(ctx, src, want, id, g.out.opts.trace)
	g.out.attempted++
	if err != nil {
		g.out.fail("restore of checkpoint %d: %v", id, err)
		return
	}
	run.probe = probe
	g.out.restores = append(g.out.restores, run)
}

// finish runs after the lookups have stopped. The target still holds
// the restore of the final checkpoint.
func (g *restoreRig) finish(ctx context.Context, final *ckpt.Snapshot, finalID int) error {
	out := g.out
	if n := len(out.restores); n == 0 || out.restores[n-1].id != finalID {
		return errors.New("the final checkpoint was not restored")
	}
	// What the replica served from the final checkpoint must be the
	// bits a restore of it produces.
	if _, err := out.lookups.verifyTail(finalID, g.target.Sparse.Table); err != nil {
		out.fail("%v", err)
	}
	if !out.opts.trace {
		return nil
	}
	shard0, err := ckpt.NewRestorer(wire.ShardJobID(jobID, 0), g.store)
	if err != nil {
		return err
	}
	chain, err := shard0.Chain(ctx, finalID)
	if err != nil {
		return err
	}
	out.chainLen = len(chain)
	for i := 0; i < 3; i++ {
		run, err := g.once(ctx, g.local, final, finalID, false)
		if err != nil {
			out.fail("restore from local store: %v", err)
			continue
		}
		out.localRestores = append(out.localRestores, float64(run.end-run.start)/1e6)
	}
	return nil
}

// checkRestore compares a restored model with the snapshot its
// checkpoint was cut from: step, reader state and dense bytes must be
// equal; rows bit-identical without quantization, and within the
// quantizer's error bound with it. It returns the mean relative L2
// error over rows.
func checkRestore(res *ckpt.RestoreResult, got *model.DLRM, want *ckpt.Snapshot, exact bool) (float64, error) {
	if res.Step != want.Step {
		return 0, fmt.Errorf("restored step %d, committed %d", res.Step, want.Step)
	}
	if res.Reader != want.Reader {
		return 0, fmt.Errorf("restored reader state %+v, committed %+v", res.Reader, want.Reader)
	}
	dense, err := got.DenseState()
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(dense, want.Dense) {
		return 0, errors.New("restored dense state differs from the committed snapshot")
	}
	var relSum float64
	var rows int
	for _, wt := range want.Tables {
		gt := got.Sparse.Table(wt.ID)
		if gt == nil || gt.Rows != wt.Rows || gt.Dim != wt.Dim {
			return 0, fmt.Errorf("restored model has no table %d of the committed shape", wt.ID)
		}
		for r := 0; r < wt.Rows; r++ {
			if math.Float32bits(gt.Accum[r]) != math.Float32bits(wt.Accum[r]) {
				return 0, fmt.Errorf("table %d row %d: restored accumulator differs", wt.ID, r)
			}
			g, w := gt.Lookup(r), wt.Lookup(r)
			var errSq, refSq float64
			for j := range w {
				if exact && math.Float32bits(g[j]) != math.Float32bits(w[j]) {
					return 0, fmt.Errorf("table %d row %d: restored row is not bit-identical", wt.ID, r)
				}
				d := float64(g[j]) - float64(w[j])
				errSq += d * d
				refSq += float64(w[j]) * float64(w[j])
			}
			if refSq > 0 {
				relSum += math.Sqrt(errSq / refSq)
			}
			rows++
		}
	}
	rel := relSum / float64(rows)
	if !(rel < relL2Limit) {
		return rel, fmt.Errorf("restored rows are off by mean relative L2 %.4f, limit %.2f", rel, relL2Limit)
	}
	return rel, nil
}
