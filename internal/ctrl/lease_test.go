package ctrl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/simclock"
)

func testRegister(t *testing.T, store objstore.Store, clock simclock.Clock, holder string) *Register {
	t.Helper()
	reg, err := NewRegister(RegisterConfig{
		JobID: "leasejob", Store: store, Holder: holder,
		TTL: 10 * time.Second, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestLeaseAcquireRenewExpire(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	clock := simclock.NewSim(time.Time{})
	regA := testRegister(t, store, clock, "a")
	regB := testRegister(t, store, clock, "b")

	leaseA, err := regA.Acquire(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if leaseA.Epoch() != 1 {
		t.Fatalf("first grant epoch = %d, want 1", leaseA.Epoch())
	}
	// A second claimant is refused while the grant is live.
	if _, err := regB.Acquire(ctx, 0); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("concurrent acquire err = %v, want ErrLeaseHeld", err)
	}
	// Renewal keeps the grant alive past the original TTL.
	clock.Sleep(6 * time.Second)
	if err := leaseA.Renew(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(6 * time.Second)
	if _, err := regB.Acquire(ctx, 0); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire after renew err = %v, want ErrLeaseHeld", err)
	}

	// The holder stops renewing; after expiry the standby takes over at
	// the next epoch — no manual assignment.
	clock.Sleep(11 * time.Second)
	leaseB, err := regB.Acquire(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if leaseB.Epoch() != 2 {
		t.Fatalf("takeover epoch = %d, want 2", leaseB.Epoch())
	}
	// The superseded holder can no longer renew or commit.
	if err := leaseA.Renew(ctx); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("superseded renew err = %v, want ErrLeaseHeld", err)
	}
	// Releasing keeps the epoch floor: the next grant still moves up.
	if err := leaseB.Release(ctx); err != nil {
		t.Fatal(err)
	}
	leaseA2, err := regA.Acquire(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if leaseA2.Epoch() != 3 {
		t.Fatalf("epoch after release = %d, want 3 (epochs are durable and monotonic)", leaseA2.Epoch())
	}
}

func TestLeaseExplicitEpochFloor(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	clock := simclock.NewSim(time.Time{})
	regA := testRegister(t, store, clock, "a")

	lease, err := regA.Acquire(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Epoch() != 5 {
		t.Fatalf("explicit epoch grant = %d, want 5", lease.Epoch())
	}
	if err := lease.Release(ctx); err != nil {
		t.Fatal(err)
	}
	// A relaunched controller presenting a stale explicit epoch is
	// refused by the register before it ever dials an agent.
	if _, err := regA.Acquire(ctx, 5); err == nil || errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("stale explicit epoch err = %v, want non-lease refusal", err)
	}
}

func TestRegisterObserveEpochIsAFloor(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	clock := simclock.NewSim(time.Time{})
	reg := testRegister(t, store, clock, "a")

	if err := reg.ObserveEpoch(ctx, 9); err != nil {
		t.Fatal(err)
	}
	rec, err := reg.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 9 {
		t.Fatalf("observed epoch = %d, want 9", rec.Epoch)
	}
	// Lower observations never move the floor down.
	if err := reg.ObserveEpoch(ctx, 4); err != nil {
		t.Fatal(err)
	}
	rec, err = reg.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 9 {
		t.Fatalf("epoch after lower observation = %d, want 9", rec.Epoch)
	}
	// The next grant starts above everything the fleet has seen.
	lease, err := reg.Acquire(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Epoch() != 10 {
		t.Fatalf("grant after observation = %d, want 10", lease.Epoch())
	}
}

// TestRegisterRefusesDamage: a register holding anything but a record
// this register writes is damage. Read and ObserveEpoch report it,
// Acquire grants nothing over it, and the stored bytes stay for an
// operator to look at. A lenient decode read the first four as a lower
// epoch — epoch 0 for null and {} — and Acquire granted epoch 1 over a
// job that had reached epoch 7. A missing register still reads as the
// zero record, and the record write stores reads back as itself.
func TestRegisterRefusesDamage(t *testing.T) {
	ctx := context.Background()
	for _, stored := range []string{
		`null`,
		`{}`,
		`{"epoch":7,"epoch":0}`,
		`{"Epoch":7}`,
		`{"epoch":7} `,
		`{"epoch":7}{}`,
		`{"epoch":7,"holder":""}`,
		`{"epoch":7,"term":1}`,
		`{"epoch":7.0}`,
		``,
	} {
		store := objstore.NewMemStore(objstore.MemConfig{})
		reg := testRegister(t, store, simclock.NewSim(time.Time{}), "a")
		if err := store.Put(ctx, LeaseKey("leasejob"), []byte(stored)); err != nil {
			t.Fatal(err)
		}
		if rec, err := reg.Read(ctx); err == nil || !strings.Contains(err.Error(), "damaged lease register") {
			t.Errorf("register holding %q: Read = %+v, %v; want a damaged lease register", stored, rec, err)
		}
		if l, err := reg.Acquire(ctx, 0); err == nil {
			t.Errorf("register holding %q: Acquire granted epoch %d", stored, l.Epoch())
		}
		if err := reg.ObserveEpoch(ctx, 3); err == nil {
			t.Errorf("register holding %q: ObserveEpoch wrote over it", stored)
		}
		if blob, err := store.Get(ctx, LeaseKey("leasejob")); err != nil || string(blob) != stored {
			t.Errorf("register holding %q now holds %q, %v", stored, blob, err)
		}
	}

	store := objstore.NewMemStore(objstore.MemConfig{})
	reg := testRegister(t, store, simclock.NewSim(time.Time{}), "a")
	if rec, err := reg.Read(ctx); err != nil || *rec != (LeaseRecord{}) {
		t.Fatalf("missing register: Read = %+v, %v; want the zero record", rec, err)
	}
	if err := store.Put(ctx, LeaseKey("leasejob"), []byte(`{"epoch":7}`)); err != nil {
		t.Fatal(err)
	}
	l, err := reg.Acquire(ctx, 0)
	if err != nil || l.Epoch() != 8 {
		t.Fatalf("register at epoch 7: Acquire = %v, %v; want epoch 8", l, err)
	}
	if _, err := NewRegister(RegisterConfig{JobID: "leasejob", Store: store, Holder: "a\xff"}); err == nil {
		t.Fatal("a holder JSON cannot store verbatim was accepted")
	}
}

// FuzzDecodeLease holds the lease register's decoder — the reader of the
// fleet's durable epoch — to its properties: it never panics; a record it
// accepts re-encodes to exactly the input, so the register has one
// spelling per record; and an accepted record followed by trailing
// garbage is refused. The corpus in testdata/fuzz/FuzzDecodeLease holds
// records the register writes: an epoch floor alone, a live grant and a
// released one.
func FuzzDecodeLease(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeLease(data)
		if err != nil {
			return
		}
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("re-encoding an accepted record: %v", err)
		}
		if !bytes.Equal(blob, data) {
			t.Fatalf("accepted %q as %+v, which encodes to %q", data, rec, blob)
		}
		for _, garbage := range []string{" ", "{}", "\xff", "x"} {
			if _, err := decodeLease(append(data[:len(data):len(data)], garbage...)); err == nil {
				t.Fatalf("accepted the record followed by %q", garbage)
			}
		}
	})
}
