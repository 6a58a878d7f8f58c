package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/ctrl"
	"repro/internal/quant"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func nsToMs(ns int64) float64    { return float64(ns) / 1e6 }
func nsToUs(ns int64) float64    { return float64(ns) / 1e3 }
func perRun(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// endToEnd fills in what a user of the fleet sees. Every workload
// reports every one of these. Commit, freshness and restore times cross
// the fleet's TCP hops and follow the host's speed from minute to
// minute; each sample is taken per unit of its interval's host probe
// (see hostProbe). The stall is one memory copy and setup_s is over
// before the first probe: both are reported as measured.
func (out *outcome) endToEnd(t *table) {
	var setups, stall, commit, fresh samples
	for _, d := range out.setups {
		setups = append(setups, d.Seconds())
	}
	for i := range out.intervals {
		iv := &out.intervals[i]
		stall = append(stall, ms(iv.stall))
		commit = append(commit, normalized(iv.commit, iv.probe))
		fresh = append(fresh, normalized(time.Duration(iv.servedAt-iv.commitAt), iv.probe))
	}
	t.pctOf("setup_s", setups, 50)
	t.pctOf("stall_p50_ms", stall, 50)
	t.pctOf("commit_p50_ms", commit, 50)
	t.pctOf("freshness_p50_ms", fresh, 50)

	n := len(out.intervals)
	base := float64(out.baselineBytes)
	t.set("write_bytes_ratio", perRun(float64(out.writeBytes), float64(n))/base, n)
	t.set("capacity_ratio", float64(out.liveBytes)/base, 1)

	var restore samples
	for _, r := range out.restores {
		restore = append(restore, normalized(time.Duration(r.end-r.start), r.probe))
	}
	_, relL2, _ := out.restoreSamples()
	t.pctOf("restore_p50_ms", restore, 50)
	t.set("restore_fidelity", 1-relL2.mean(), len(relL2))
}

// measured is the medians endToEnd normalizes, as the clock read them,
// and the median host probe: the result's header carries them.
func (out *outcome) measured() map[string]float64 {
	var probe, commit, fresh samples
	for i := range out.intervals {
		iv := &out.intervals[i]
		probe = append(probe, ms(iv.probe))
		commit = append(commit, ms(iv.commit))
		fresh = append(fresh, nsToMs(iv.servedAt-iv.commitAt))
	}
	restore, _, _ := out.restoreSamples()
	return map[string]float64{
		"host_probe_p50_ms": probe.pct(50),
		"commit_p50_ms":     commit.pct(50),
		"freshness_p50_ms":  fresh.pct(50),
		"restore_p50_ms":    restore.pct(50),
	}
}

// restoreSamples returns each timed restore's duration (ms), relative
// L2 error and bytes fetched.
func (out *outcome) restoreSamples() (durMs, relL2, bytes samples) {
	for _, r := range out.restores {
		durMs = append(durMs, nsToMs(r.end-r.start))
		relL2 = append(relL2, r.relL2)
		bytes = append(bytes, float64(r.bytes))
	}
	return durMs, relL2, bytes
}

// lookupLatencies splits lookup latencies into those due before the
// first commit started and those due after.
func (out *outcome) lookupLatencies() (static, during samples) {
	for _, c := range out.lookups.conns {
		for i, lat := range c.latUs {
			if c.due[i] < out.commitPhase[0] {
				static = append(static, lat)
			} else {
				during = append(during, lat)
			}
		}
	}
	return static, during
}

// hygiene judges the lookup generator: the median send delay of the
// lookups due before the first commit (µs), the share of all lookups
// sent late, and the share of the timetable left unsent at the end.
func (out *outcome) hygiene() (pacerDelayUs, lateFrac, unsentFrac float64) {
	var quiet samples
	var sent, late, unsent float64
	for _, c := range out.lookups.conns {
		unsent += float64(c.unsent)
		for i, d := range c.sendUs {
			sent++
			if d > float64(lateAfter/time.Microsecond) {
				late++
			}
			if c.due[i] < out.commitPhase[0] {
				quiet = append(quiet, d)
			}
		}
	}
	return quiet.pct(50), perRun(late, sent), perRun(unsent, sent+unsent)
}

// cut holds the instants that divide one traced interval's commit and
// freshness into contiguous stages, taken from its store operations.
type cut struct{ firstShardMan, lastShardMan, firstReplica, lastReplicaGet int64 }

// perLayer fills in the rows under the end-to-end numbers, from the
// traced intervals of a traced run.
func (out *outcome) perLayer(t *table) {
	o, rec := out.opts, out.rec
	var traced []*interval
	var step, update, modFrac, stall, subsnap samples
	var commitOn, commitOff, freshOn, nullWall, nullCPU samples
	var rows, payload, cpu, mallocs, allocMB, gcPause samples
	var replay replayCost
	var engineQ, replayE, probe samples
	for i := range out.intervals {
		iv := &out.intervals[i]
		probe = append(probe, ms(iv.probe))
		step = append(step, ms(iv.step))
		update = append(update, ms(iv.update))
		modFrac = append(modFrac, iv.modifiedFrac)
		stall = append(stall, ms(iv.stall))
		subsnap = append(subsnap, ms(iv.subsnap))
		nullWall = append(nullWall, ms(iv.nullWall))
		nullCPU = append(nullCPU, ms(iv.nullCPU))
		cpu = append(cpu, ms(iv.proc.cpu))
		mallocs = append(mallocs, float64(iv.proc.mallocs))
		allocMB = append(allocMB, float64(iv.proc.allocB)/(1<<20))
		gcPause = append(gcPause, ms(iv.proc.gcPause))
		stored := 0
		for _, tm := range iv.man.Tables {
			stored += tm.StoredRows
		}
		rows = append(rows, float64(stored))
		payload = append(payload, float64(iv.man.PayloadBytes))
		if !iv.traced {
			commitOff = append(commitOff, ms(iv.commit))
			continue
		}
		traced = append(traced, iv)
		commitOn = append(commitOn, ms(iv.commit))
		freshOn = append(freshOn, nsToMs(iv.servedAt-iv.commitAt))
		if iv.replay != nil {
			replay.rows += iv.replay.rows
			replay.quantize += iv.replay.quantize
			replay.dequantize += iv.replay.dequantize
			// What the shadow engine spent beyond encoding chunks is
			// quantization the way the engine runs it.
			encode := iv.replay.scaled(iv.replay.encode)
			replayE = append(replayE, ms(encode))
			engineQ = append(engineQ, ms(max(0, iv.nullCPU-encode)))
		}
	}
	nT := float64(len(traced))

	t.set("trainer.step_ms", step.mean(), len(step))
	t.set("embedding.update_ms", update.mean(), len(update))
	t.set("embedding.modified_frac", modFrac.mean(), len(modFrac))
	t.pctOf("ckpt.snapshot_p90_ms", stall, 90)
	t.set("ckpt.subsnapshot_ms", subsnap.mean(), len(subsnap))

	t.set("quant.quantize_ms", engineQ.mean(), len(engineQ))
	t.set("quant.ns_per_row", perRun(float64(replay.quantize), float64(replay.rows)), replay.rows)
	t.set("quant.dequantize_ns_per_row", perRun(float64(replay.dequantize), float64(replay.rows)), replay.rows)
	t.pctOf("ckpt.prepare_nullstore_ms", nullWall, 50)
	t.pctOf("ckpt.prepare_nullstore_cpu_ms", nullCPU, 50)
	t.set("ckpt.encode_self_ms", replayE.mean(), len(replayE))
	t.set("ckpt.rows_per_ckpt", rows.mean(), len(rows))
	t.set("ckpt.payload_bytes_per_ckpt", payload.mean(), len(payload))

	// Store operations. Records exist only for traced intervals and for
	// restores, so the commit loop's records are the traced intervals'.
	leaseKey := ctrl.LeaseKey(jobID)
	cuts := make([]cut, len(traced))
	owner := func(ts int64) int { // traced interval containing ts, or -1
		i := sort.Search(len(traced), func(i int) bool { return traced[i].start > ts }) - 1
		if i < 0 {
			return -1
		}
		iv := traced[i]
		if ts > max(iv.commitEnd, iv.servedAt) {
			return -1
		}
		return i
	}
	var put, get samples
	var putBusy, putBytes, chunks, manBytes, listBusy, stats, deletes, leaseBusy float64
	var restoreGets, restoreGetBusy, replicaGets, replicaGetBytes float64
	rec.mu.Lock()
	for i := range rec.recs {
		r := &rec.recs[i]
		d := r.end - r.start
		// Restores run inside the loop but are no part of a checkpoint.
		inLoop := r.start < out.commitPhase[1] && r.role != roleRestorer
		switch r.op {
		case opPut:
			if !inLoop || (r.role != roleAgent && r.role != roleController) {
				continue
			}
			put = append(put, nsToUs(d))
			putBusy += nsToMs(d)
			putBytes += float64(r.bytes)
			switch {
			case strings.Contains(r.key, "/chunk/"):
				chunks++
			case strings.HasSuffix(r.key, "/manifest"):
				manBytes += float64(r.bytes)
				if k := owner(r.start); k >= 0 && r.role == roleAgent {
					c := &cuts[k]
					if c.firstShardMan == 0 || r.start < c.firstShardMan {
						c.firstShardMan = r.start
					}
					c.lastShardMan = max(c.lastShardMan, r.end)
				}
			}
		case opGet:
			get = append(get, nsToUs(d))
			if r.role == roleRestorer {
				restoreGets++
				restoreGetBusy += nsToMs(d)
			}
		case opList:
			if inLoop {
				listBusy += nsToMs(d)
			}
		case opStat:
			if inLoop {
				stats++
			}
		case opDelete:
			if inLoop {
				deletes++
			}
		}
		if r.role == roleController && r.key == leaseKey && inLoop {
			leaseBusy += nsToMs(d)
		}
		if r.role == roleReplica && inLoop {
			if k := owner(r.start); k >= 0 && r.start >= traced[k].commitAt && r.end <= traced[k].servedAt {
				c := &cuts[k]
				if c.firstReplica == 0 || r.start < c.firstReplica {
					c.firstReplica = r.start
				}
				if r.op == opGet {
					c.lastReplicaGet = max(c.lastReplicaGet, r.end)
					replicaGets++
					replicaGetBytes += float64(r.bytes)
				}
			}
		}
	}
	var backPut, backGet samples
	var backPutBusy float64
	for i := range rec.back {
		b := &rec.back[i]
		d := b.end - b.start
		switch b.op {
		case opPut:
			if b.start < out.commitPhase[1] {
				backPut = append(backPut, nsToUs(d))
				backPutBusy += nsToMs(d)
			}
		case opGet:
			backGet = append(backGet, nsToUs(d))
		}
	}
	rec.mu.Unlock()

	t.set("ckpt.chunks_per_ckpt", perRun(chunks, nT), len(traced))
	t.set("wire.manifest_bytes_per_ckpt", perRun(manBytes, nT), len(traced))
	bits := 32.0
	if o.wl.quant.Method != quant.MethodNone {
		bits = float64(o.wl.quant.Bits)
	}
	// The traced intervals' share of all rows stored, by count.
	var tracedRows float64
	for _, iv := range traced {
		for _, tm := range iv.man.Tables {
			tracedRows += float64(tm.StoredRows)
		}
	}
	rowBytes := tracedRows * float64(o.sc.dim) * bits / 8
	t.set("wire.metadata_frac", perRun(putBytes-rowBytes, putBytes), len(put))

	t.pctOf("objstore.put_p50_us", put, 50)
	t.pctOf("objstore.put_p99_us", put, 99)
	t.set("objstore.put_busy_ms_per_ckpt", perRun(putBusy, nT), len(put))
	t.set("objstore.puts_per_ckpt", perRun(float64(len(put)), nT), len(traced))
	t.set("objstore.put_bytes_per_ckpt", perRun(putBytes, nT), len(traced))
	t.pctOf("objstore.get_p50_us", get, 50)
	t.pctOf("objstore.get_p99_us", get, 99)
	nR := float64(len(out.restores))
	t.set("objstore.gets_per_restore", perRun(restoreGets, nR), len(out.restores))
	t.set("objstore.get_busy_ms_per_restore", perRun(restoreGetBusy, nR), len(out.restores))
	t.set("objstore.list_ms_per_ckpt", perRun(listBusy, nT), len(traced))
	t.set("objstore.stats_per_ckpt", perRun(stats, nT), len(traced))
	t.set("objstore.deletes_per_ckpt", perRun(deletes, nT), len(traced))
	t.set("objstore.errors", float64(rec.errs.Load()), int(rec.ops.Load()))

	t.pctOf("objstore.backend_put_p50_us", backPut, 50)
	t.pctOf("objstore.backend_put_p99_us", backPut, 99)
	t.set("objstore.backend_put_busy_ms_per_ckpt", perRun(backPutBusy, nT), len(backPut))
	t.pctOf("objstore.backend_get_p50_us", backGet, 50)
	t.set("objstore.transport_put_p50_us", put.pct(50)-backPut.pct(50), len(put))
	t.set("objstore.disk_log_bytes_ratio", perRun(float64(out.diskLogBytes), float64(out.userPutBytes)), 1)
	t.set("objstore.disk_compactions", float64(out.compactions), 1)

	// Commit phases: contiguous intervals cut at the first and last
	// shard-manifest Put and at the commit point, reported as shares of
	// the median commit so that the four rows add up to it.
	var prepare, publish, commit, finalize samples
	var announce, fetch, apply samples
	for k, iv := range traced {
		c := &cuts[k]
		if c.firstShardMan == 0 { // no shard manifest seen: all of it is prepare
			c.firstShardMan, c.lastShardMan = iv.commitAt, iv.commitAt
		}
		b1, b2 := c.firstShardMan, c.lastShardMan
		prepare = append(prepare, nsToMs(b1-iv.commitStart))
		publish = append(publish, nsToMs(b2-b1))
		commit = append(commit, nsToMs(iv.commitAt-b2))
		finalize = append(finalize, nsToMs(iv.commitEnd-iv.commitAt))

		if c.firstReplica == 0 {
			c.firstReplica = iv.servedAt
		}
		c.lastReplicaGet = min(max(c.lastReplicaGet, c.firstReplica), iv.servedAt)
		first, last := c.firstReplica, c.lastReplicaGet
		announce = append(announce, nsToMs(first-iv.commitAt))
		fetch = append(fetch, nsToMs(last-first))
		apply = append(apply, nsToMs(iv.servedAt-last))
	}
	out.cuts = cuts
	t.pctOf("ctrl.checkpoint_p50_ms", commitOn, 50)
	t.pctOf("ctrl.checkpoint_p90_ms", commitOn, 90)
	t.shares(commitOn.pct(50), len(traced),
		[]string{"ctrl.phase_prepare_ms", "ctrl.phase_publish_ms", "ctrl.phase_commit_ms", "ctrl.phase_finalize_ms"},
		[]samples{prepare, publish, commit, finalize})
	t.pctOf("ctrl.status_rtt_us", out.statusRTT, 50)
	t.set("ctrl.lease_ms_per_ckpt", perRun(leaseBusy, nT), len(traced))

	t.pctOf("serve.freshness_p50_ms", freshOn, 50)
	t.pctOf("serve.freshness_p90_ms", freshOn, 90)
	t.shares(freshOn.pct(50), len(traced),
		[]string{"ctrl.announce_ms", "serve.fetch_ms", "serve.apply_ms"},
		[]samples{announce, fetch, apply})
	t.set("serve.gets_per_ckpt", perRun(replicaGets, nT), len(traced))
	t.set("serve.get_bytes_per_ckpt", perRun(replicaGetBytes, nT), len(traced))
	t.set("serve.bootstrap_ms", ms(out.bootstrap), 1)

	static, during := out.lookupLatencies()
	t.pctOf("serve.lookup_static_p50_us", static, 50)
	t.pctOf("serve.lookup_p50_us", during, 50)
	t.pctOf("serve.lookup_p99_us", during, 99)
	t.set("serve.lookups", float64(len(static)+len(during)), len(static)+len(during))
	_, late, _ := out.hygiene()
	t.set("serve.lookup_late_frac", late, len(static)+len(during))

	restore, relL2, restoreBytes := out.restoreSamples()
	t.pctOf("ckpt.restore_p50_ms", restore, 50)
	t.pctOf("ckpt.restore_p90_ms", restore, 90)
	t.pctOf("ckpt.restore_localstore_ms", out.localRestores, 50)
	t.set("ckpt.restore_chain_len", float64(out.chainLen), 1)
	t.set("ckpt.restore_bytes", restoreBytes.mean(), len(restoreBytes))
	t.set("ckpt.restore_rel_l2", relL2.mean(), len(relL2))

	t.set("proc.cpu_ms_per_ckpt", cpu.mean(), len(cpu))
	t.set("proc.allocs_per_ckpt", mallocs.mean(), len(mallocs))
	t.set("proc.alloc_mb_per_ckpt", allocMB.mean(), len(allocMB))
	t.set("proc.gc_pause_ms", gcPause.sum(), len(gcPause))
	t.set("proc.peak_heap_mb", float64(out.peakHeap)/(1<<20), len(cpu))
	t.pctOf("host.probe_ms", probe, 50)
	t.set("trace.overhead_frac", perRun(commitOn.pct(50)-commitOff.pct(50), commitOff.pct(50)), len(commitOn)+len(commitOff))
}
