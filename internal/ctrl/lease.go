package ctrl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"
	"unicode/utf8"

	"repro/internal/objstore"
	"repro/internal/simclock"
)

// ErrLeaseHeld is returned when the epoch lease is held by another live
// controller, or when a renew/release finds the caller's lease superseded.
var ErrLeaseHeld = errors.New("ctrl: lease held")

// LeaseKey returns the store key of a job's epoch/lease register.
// It lives under the job's control prefix — outside both the composite
// checkpoint scope (<job>/ckpt/) and the shard scopes (<job>/shard/) —
// so retention sweeps never touch it.
func LeaseKey(jobID string) string {
	return jobID + "/ctrl/lease"
}

// LeaseRecord is the durable state of the epoch/lease register: the
// highest epoch ever granted or observed for the job, and — while a
// controller is live — who holds the commit lease and until when.
//
// The register is the fleet's durable epoch authority. Epochs only grow:
// a crash, failover, or full-fleet restart never resets them, which is
// what lets agents refuse a stale controller even after losing their own
// in-memory fencing state.
type LeaseRecord struct {
	// Epoch is the highest epoch granted to any holder or observed from
	// the fleet. Monotonic for the lifetime of the register object.
	Epoch uint64 `json:"epoch"`
	// Holder identifies the controller the lease was granted to.
	// Empty when no lease has ever been granted.
	Holder string `json:"holder,omitempty"`
	// ExpiresUnixNano is when the current grant lapses. A register whose
	// grant has lapsed still pins the epoch floor.
	ExpiresUnixNano int64 `json:"expires_unix_nano,omitempty"`
}

// Expires returns the grant's expiry as a time.Time.
func (r *LeaseRecord) Expires() time.Time { return time.Unix(0, r.ExpiresUnixNano) }

// HeldAt reports whether the record represents a live grant at now.
func (r *LeaseRecord) HeldAt(now time.Time) bool {
	return r.Holder != "" && now.Before(r.Expires())
}

// RegisterConfig configures access to a job's epoch/lease register.
type RegisterConfig struct {
	// JobID scopes the register key.
	JobID string
	// Store is the object store backing the register.
	Store objstore.Store
	// Holder identifies this process in grants it acquires. Required for
	// Acquire; read-only users (ckptctl, agents) may leave it empty.
	Holder string
	// TTL is how long a grant lasts between renewals. Defaults to 10s.
	TTL time.Duration
	// Settle is the delay between writing a claim and the verify read
	// that detects a racing claimant. The Store interface has no
	// compare-and-swap, so acquisition is write-then-verify: last writer
	// wins the key, and the settle window gives a concurrent loser's
	// write time to land before we conclude we won. Defaults to 25ms.
	// Election is therefore a liveness mechanism; safety always rests on
	// agent-side epoch fencing.
	Settle time.Duration
	// Clock supplies time; nil means the real clock.
	Clock simclock.Clock
}

// Register reads and mutates a job's epoch/lease record in the store.
type Register struct {
	cfg   RegisterConfig
	clock simclock.Clock
}

// NewRegister validates cfg and returns a register handle.
func NewRegister(cfg RegisterConfig) (*Register, error) {
	if cfg.JobID == "" {
		return nil, errors.New("ctrl: register requires a job ID")
	}
	if cfg.Store == nil {
		return nil, errors.New("ctrl: register requires a store")
	}
	// JSON would store invalid UTF-8 as U+FFFD, which decodeLease then
	// refuses: a claim by such a holder would damage the register.
	if !utf8.ValidString(cfg.Holder) {
		return nil, fmt.Errorf("ctrl: register holder %q is not valid UTF-8", cfg.Holder)
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 10 * time.Second
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 25 * time.Millisecond
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Register{cfg: cfg, clock: clock}, nil
}

// Read returns the current register record. A register that has never
// been written reads as the zero record (epoch 0, no holder); one that
// holds anything but a record this register writes is an error
// (decodeLease).
func (r *Register) Read(ctx context.Context) (*LeaseRecord, error) {
	blob, err := r.cfg.Store.Get(ctx, LeaseKey(r.cfg.JobID))
	if errors.Is(err, objstore.ErrNotFound) {
		return &LeaseRecord{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ctrl: read lease register: %w", err)
	}
	return decodeLease(blob)
}

// decodeLease parses a stored register record, accepting only the bytes
// write stores: the record must re-encode to exactly blob. A lenient
// decode reads null, {}, a duplicated key or a key in the wrong case as
// a lower epoch — epoch 0 for the first two — and Acquire would then
// grant an epoch the fleet has already passed, so all of them are a
// damaged register instead.
func decodeLease(blob []byte) (*LeaseRecord, error) {
	rec := &LeaseRecord{}
	if err := json.Unmarshal(blob, rec); err != nil {
		return nil, fmt.Errorf("ctrl: damaged lease register: %w", err)
	}
	if again, err := json.Marshal(rec); err != nil || !bytes.Equal(again, blob) {
		return nil, fmt.Errorf("ctrl: damaged lease register: its %d bytes are not a record as the register writes one", len(blob))
	}
	return rec, nil
}

func (r *Register) write(ctx context.Context, rec *LeaseRecord) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("ctrl: encode lease register: %w", err)
	}
	if err := r.cfg.Store.Put(ctx, LeaseKey(r.cfg.JobID), blob); err != nil {
		return fmt.Errorf("ctrl: write lease register: %w", err)
	}
	return nil
}

// Acquire claims the commit lease. With epochFloor == 0 the granted epoch
// is the register's epoch + 1; a nonzero floor demands exactly that epoch
// and fails if the register has already moved at or past it (a relaunched
// controller presenting its old explicit epoch is refused here, before it
// ever dials an agent). Returns ErrLeaseHeld while another holder's grant
// is live or when a racing claimant wins the settle window.
func (r *Register) Acquire(ctx context.Context, epochFloor uint64) (*Lease, error) {
	if r.cfg.Holder == "" {
		return nil, errors.New("ctrl: acquire requires a holder identity")
	}
	rec, err := r.Read(ctx)
	if err != nil {
		return nil, err
	}
	now := r.clock.Now()
	if rec.HeldAt(now) && rec.Holder != r.cfg.Holder {
		return nil, fmt.Errorf("%w: by %q until %s", ErrLeaseHeld, rec.Holder, rec.Expires().Format(time.RFC3339))
	}
	epoch := rec.Epoch + 1
	if epochFloor != 0 {
		if epochFloor <= rec.Epoch {
			return nil, fmt.Errorf("ctrl: epoch %d is not above register epoch %d", epochFloor, rec.Epoch)
		}
		epoch = epochFloor
	}
	claim := &LeaseRecord{Epoch: epoch, Holder: r.cfg.Holder, ExpiresUnixNano: now.Add(r.cfg.TTL).UnixNano()}
	if err := r.write(ctx, claim); err != nil {
		return nil, err
	}
	// Write-then-verify: let a racing claim land, then check we still own
	// the record.
	r.clock.Sleep(r.cfg.Settle)
	check, err := r.Read(ctx)
	if err != nil {
		return nil, err
	}
	if check.Epoch != epoch || check.Holder != r.cfg.Holder {
		return nil, fmt.Errorf("%w: lost acquisition race to %q (epoch %d)", ErrLeaseHeld, check.Holder, check.Epoch)
	}
	return &Lease{reg: r, epoch: epoch}, nil
}

// WaitAcquire blocks until the lease can be acquired — the standby
// controller's takeover loop. Polling is jittered exponential backoff
// bounded by a fraction of the TTL, so a standby still promotes itself
// within roughly one TTL of the leader's death, but a herd of standbys
// (or a fleet retrying through a healed partition) spreads out instead
// of hitting the anchor store in lockstep. A store outage while waiting
// is retried too — an unreachable register is indistinguishable from a
// partition the standby is expected to ride out.
func (r *Register) WaitAcquire(ctx context.Context) (*Lease, error) {
	base := r.cfg.TTL / 16
	if base < 5*time.Millisecond {
		base = 5 * time.Millisecond
	}
	max := r.cfg.TTL / 4
	if max < base {
		max = base
	}
	bo := NewBackoff(base, max)
	for {
		l, err := r.Acquire(ctx, 0)
		if err == nil {
			return l, nil
		}
		if !errors.Is(err, ErrLeaseHeld) && !errors.Is(err, objstore.ErrStoreUnavailable) {
			return nil, err
		}
		if err := bo.Sleep(ctx, r.clock); err != nil {
			return nil, err
		}
	}
}

// ObserveEpoch raises the register's epoch floor to epoch if it is higher
// than the recorded one, without touching the current grant. Agents call
// this when they adopt a higher epoch from a controller, which makes the
// fleet's fencing state durable: even if every agent restarts, the next
// register read restores the floor.
func (r *Register) ObserveEpoch(ctx context.Context, epoch uint64) error {
	rec, err := r.Read(ctx)
	if err != nil {
		return err
	}
	if epoch <= rec.Epoch {
		return nil
	}
	rec.Epoch = epoch
	return r.write(ctx, rec)
}

// Lease is a live grant from a Register. It carries the epoch the holder
// commits under; Renew must keep succeeding for commits to proceed.
type Lease struct {
	reg   *Register
	epoch uint64
}

// Epoch returns the epoch this lease was granted at.
func (l *Lease) Epoch() uint64 { return l.epoch }

// Renew extends the grant by one TTL. It fails with ErrLeaseHeld if the
// register has moved past this lease — the holder has been superseded and
// must stop committing.
func (l *Lease) Renew(ctx context.Context) error {
	rec, err := l.reg.Read(ctx)
	if err != nil {
		return err
	}
	if rec.Epoch != l.epoch || rec.Holder != l.reg.cfg.Holder {
		return fmt.Errorf("%w: superseded by %q (epoch %d)", ErrLeaseHeld, rec.Holder, rec.Epoch)
	}
	rec.ExpiresUnixNano = l.reg.clock.Now().Add(l.reg.cfg.TTL).UnixNano()
	return l.reg.write(ctx, rec)
}

// Release lapses the grant immediately while keeping the epoch floor, so
// a successor can take over without waiting out the TTL. Releasing a
// lease that has already been superseded is a no-op.
func (l *Lease) Release(ctx context.Context) error {
	rec, err := l.reg.Read(ctx)
	if err != nil {
		return err
	}
	if rec.Epoch != l.epoch || rec.Holder != l.reg.cfg.Holder {
		return nil
	}
	rec.ExpiresUnixNano = l.reg.clock.Now().UnixNano()
	return l.reg.write(ctx, rec)
}

// sleepCtx sleeps d on clock, returning early with ctx's error if the
// context is cancelled first. Virtual clocks advance instantly, so only
// the real clock needs the cancellable path.
func sleepCtx(ctx context.Context, clock simclock.Clock, d time.Duration) error {
	if _, real := clock.(simclock.Real); !real {
		clock.Sleep(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}
