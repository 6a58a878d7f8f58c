package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one timed piece of work. Parent is the index of the span
// that caused it, -1 for a root; Ckpt is the checkpoint ID every span
// of one interval shares.
type span struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	Ckpt    int    `json:"ckpt"`
}

// maxSpans bounds the trace file; store operations beyond it are
// dropped (the count is written into the file).
const maxSpans = 200000

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped_store_op_spans"`
	Spans    []span `json:"spans"`
}

// writeTrace lays the traced intervals and restores out as spans and
// writes them to <dir>/<workload>.trace.json.
func (out *outcome) writeTrace(dir string) (string, error) {
	tf := traceFile{Workload: out.opts.wl.name, Seed: out.opts.seed}
	add := func(name string, start, end int64, parent, ckpt int) int {
		tf.Spans = append(tf.Spans, span{Name: name, StartUs: start / 1e3, EndUs: end / 1e3, Parent: parent, Ckpt: ckpt})
		return len(tf.Spans) - 1
	}

	// One root per traced interval, a child per stage; store operations
	// hang off the stage that was running when they started.
	type stage struct {
		start, end int64
		span       int
		ckpt       int
	}
	var commits, serves, restores []stage
	k := 0 // index among traced intervals, as in out.cuts
	for i := range out.intervals {
		iv := &out.intervals[i]
		if !iv.traced {
			continue
		}
		root := add("interval", iv.start, max(iv.commitEnd, iv.servedAt), -1, iv.id)
		at := iv.start
		for _, st := range []struct {
			name string
			d    int64
		}{{"trainer.step", int64(iv.step)}, {"embedding.update", int64(iv.update)}, {"ckpt.snapshot", int64(iv.stall)}} {
			add(st.name, at, at+st.d, root, iv.id)
			at += st.d
		}
		c := add("ctrl.checkpoint", iv.commitStart, iv.commitEnd, root, iv.id)
		commits = append(commits, stage{iv.commitStart, iv.commitEnd, c, iv.id})
		s := add("serve.freshness", iv.commitAt, iv.servedAt, root, iv.id)
		serves = append(serves, stage{iv.commitAt, iv.servedAt, s, iv.id})
		if k < len(out.cuts) {
			ct := out.cuts[k]
			add("ctrl.phase_prepare", iv.commitStart, ct.firstShardMan, c, iv.id)
			add("ctrl.phase_publish", ct.firstShardMan, ct.lastShardMan, c, iv.id)
			add("ctrl.phase_commit", ct.lastShardMan, iv.commitAt, c, iv.id)
			add("ctrl.phase_finalize", iv.commitAt, iv.commitEnd, c, iv.id)
			add("ctrl.announce", iv.commitAt, ct.firstReplica, s, iv.id)
			add("serve.fetch", ct.firstReplica, ct.lastReplicaGet, s, iv.id)
			add("serve.apply", ct.lastReplicaGet, iv.servedAt, s, iv.id)
		}
		k++
	}
	for _, r := range out.restores {
		s := add("ckpt.restore", r.start, r.end, -1, r.id)
		restores = append(restores, stage{r.start, r.end, s, r.id})
	}
	find := func(stages []stage, ts int64) (int, int) {
		for _, st := range stages {
			if ts >= st.start && ts <= st.end {
				return st.span, st.ckpt
			}
		}
		return -1, -1
	}

	rec := out.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := range rec.recs {
		r := &rec.recs[i]
		if len(tf.Spans) >= maxSpans {
			tf.Dropped++
			continue
		}
		var parent, ckpt int
		switch r.role {
		case roleReplica:
			parent, ckpt = find(serves, r.start)
		case roleRestorer:
			parent, ckpt = find(restores, r.start)
		default:
			parent, ckpt = find(commits, r.start)
		}
		add("objstore."+opNames[r.op]+"/"+roleNames[r.role], r.start, r.end, parent, ckpt)
	}
	for i := range rec.back {
		b := &rec.back[i]
		if len(tf.Spans) >= maxSpans {
			tf.Dropped++
			continue
		}
		parent, ckpt := find(commits, b.start)
		if parent < 0 {
			if parent, ckpt = find(serves, b.start); parent < 0 {
				parent, ckpt = find(restores, b.start)
			}
		}
		add(fmt.Sprintf("objstore.backend_%s/server%d", opNames[b.op], b.server), b.start, b.end, parent, ckpt)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, out.opts.wl.name+".trace.json")
	blob, err := json.Marshal(&tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
