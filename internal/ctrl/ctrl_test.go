package ctrl

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/objstore"
	"repro/internal/rpc"
)

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &request{op: opPrepare, epoch: 7, body: []byte(`{"ckpt_id":3}`)}
	if err := writeRequest(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.op != in.op || out.epoch != in.epoch || string(out.body) != string(in.body) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}

	buf.Reset()
	if err := rpc.WriteResponse(&buf, statusFenced, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	status, payload, err := rpc.ReadResponse(&buf, maxBodyLen)
	if err != nil {
		t.Fatal(err)
	}
	if status != statusFenced || string(payload) != "stale" {
		t.Fatalf("response = %d %q", status, payload)
	}

	// Corrupt magic is rejected.
	buf.Reset()
	buf.WriteString("garbagegarbagegarbage")
	if _, err := readRequest(&buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// testSource returns a fixed two-table snapshot at whatever step is
// asked, tracking how often it was called.
func testSource(t *testing.T) (ckpt.SnapshotSource, *int) {
	t.Helper()
	calls := new(int)
	return func(ctx context.Context, step uint64) (*ckpt.Snapshot, error) {
		*calls++
		rng := rand.New(rand.NewSource(42))
		tabs := []*embedding.Table{
			embedding.NewTable(0, 32, 4, 0.1, rng),
			embedding.NewTable(1, 16, 4, 0.1, rng),
		}
		mod := map[int]*bitvec.Bitmap{0: bitvec.New(32)}
		mod[0].Set(1)
		return &ckpt.Snapshot{
			Step:     step,
			Reader:   data.ReaderState{NextSample: step * 8, BatchSize: 8},
			Dense:    []byte("dense-state"),
			Tables:   tabs,
			Modified: mod,
		}, nil
	}, calls
}

func testAgent(t *testing.T, shard int) (*Agent, objstore.Store) {
	t.Helper()
	store := objstore.NewMemStore(objstore.MemConfig{})
	src, _ := testSource(t)
	a, err := NewAgent(AgentConfig{
		JobID:  "fence",
		Shard:  shard,
		Shards: 2,
		Engine: ckpt.Config{Store: store, Policy: ckpt.PolicyOneShot},
		Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, store
}

// testLease acquires job's commit lease from a register on store, as
// cmd/controller does before NewController. Every call is the same
// holder's, so a second one supersedes the first at the next epoch, as a
// restarted controller does.
func testLease(t testing.TB, job string, store objstore.Store) *Lease {
	t.Helper()
	reg, err := NewRegister(RegisterConfig{JobID: job, Store: store, Holder: "test", Settle: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := reg.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return lease
}

func TestAgentEpochFencing(t *testing.T) {
	a, _ := testAgent(t, 0)
	ctx := context.Background()

	// Epoch 2 prepares.
	if _, err := a.Prepare(ctx, 2, &PrepareArgs{JobID: "fence", CkptID: 0, Step: 4}); err != nil {
		t.Fatal(err)
	}
	// A stale controller (epoch 1) is fenced out of every phase.
	if err := a.Publish(ctx, 1, &CommitArgs{JobID: "fence", CkptID: 0}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale publish err = %v, want ErrFenced", err)
	}
	if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: "fence", CkptID: 0, Step: 4}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale prepare err = %v, want ErrFenced", err)
	}
	// The current epoch still owns the attempt.
	if err := a.Publish(ctx, 2, &CommitArgs{JobID: "fence", CkptID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := a.Finalize(ctx, 2, &CommitArgs{JobID: "fence", CkptID: 0}); err != nil {
		t.Fatal(err)
	}
	if st := a.Status(); st.NextID != 1 || st.Epoch != 2 || st.PreparedID != -1 {
		t.Fatalf("status after commit = %+v", st)
	}
}

func TestAgentAdoptingNewerEpochAbortsInFlightAttempt(t *testing.T) {
	a, store := testAgent(t, 0)
	ctx := context.Background()
	if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: "fence", CkptID: 0, Step: 4}); err != nil {
		t.Fatal(err)
	}
	keys, _ := store.List(ctx, "fence")
	if len(keys) == 0 {
		t.Fatal("prepare stored nothing")
	}
	// A new controller at epoch 5 shows up: the old attempt is rolled
	// back completely (chunks and the composite dense object) before its
	// prepare runs.
	if _, err := a.Prepare(ctx, 5, &PrepareArgs{JobID: "fence", CkptID: 0, Step: 4}); err != nil {
		t.Fatal(err)
	}
	if st := a.Status(); st.Epoch != 5 || st.PreparedID != 0 {
		t.Fatalf("status = %+v, want epoch 5 with attempt 0 in flight", st)
	}
	// The superseded controller cannot publish its aborted attempt.
	if err := a.Publish(ctx, 1, &CommitArgs{JobID: "fence", CkptID: 0}); !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
}

func TestAgentCheckpointIDFencing(t *testing.T) {
	a, _ := testAgent(t, 0)
	ctx := context.Background()
	// Prepare for any ID other than the engine's next is fenced.
	if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: "fence", CkptID: 3, Step: 4}); !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
	// Phase commands with no prepared attempt are fenced...
	if err := a.Publish(ctx, 1, &CommitArgs{JobID: "fence", CkptID: 0}); !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
	// ...except Abort, which must be an idempotent no-op so the
	// controller can blanket-abort shards that never prepared.
	if err := a.Abort(ctx, 1, &CommitArgs{JobID: "fence", CkptID: 0}); err != nil {
		t.Fatal(err)
	}
	// Wrong job is an error (misrouted request), not silent work.
	if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: "other", CkptID: 0, Step: 4}); err == nil {
		t.Fatal("cross-job prepare accepted")
	}
	// Double-prepare of the same ID is fenced while one is in flight.
	if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: "fence", CkptID: 0, Step: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: "fence", CkptID: 0, Step: 4}); !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
	// Publish naming a different attempt than the prepared one is fenced.
	if err := a.Publish(ctx, 1, &CommitArgs{JobID: "fence", CkptID: 7}); !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
}

func TestClientServerFencedErrorCrossesTheWire(t *testing.T) {
	a, _ := testAgent(t, 0)
	srv, err := NewAgentServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialAgent(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shard != 0 || st.JobID != "fence" || st.NextID != 0 {
		t.Fatalf("status = %+v", st)
	}
	// Full happy path over TCP.
	at := NewRemoteRunner(cl, "fence", 3)
	man, err := at.Prepare(ctx, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 0 || man.DenseKey == "" {
		t.Fatalf("prepared manifest = %+v", man)
	}
	// Fencing survives serialization as ErrFenced.
	if err := NewRemoteRunner(cl, "fence", 2).Publish(ctx, 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
	if err := at.Publish(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := at.Finalize(ctx, 0); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextID != 1 || st.Epoch != 3 {
		t.Fatalf("status after TCP commit = %+v", st)
	}
}
