package ckpt

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/wire"
)

// PolicyKind selects an incremental checkpointing policy (§5.1).
type PolicyKind uint8

const (
	// PolicyFull writes a full checkpoint every interval — the baseline
	// system §6.3 compares against.
	PolicyFull PolicyKind = iota
	// PolicyOneShot writes one full baseline, then incrementals holding
	// every row modified since that baseline. Restore reads the baseline
	// plus the most recent incremental.
	PolicyOneShot
	// PolicyConsecutive writes incrementals holding only rows modified
	// during the last interval. Restore reads the baseline plus every
	// incremental in the chain. Suited to online-training publication.
	PolicyConsecutive
	// PolicyIntermittent is one-shot plus the §5.1 history predictor
	// (policyState.predictFull), which takes a fresh full baseline when the
	// projected cumulative cost of staying incremental exceeds the cost of
	// a new baseline (Fc <= Ic).
	PolicyIntermittent
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyFull:
		return "full"
	case PolicyOneShot:
		return "one-shot"
	case PolicyConsecutive:
		return "consecutive"
	case PolicyIntermittent:
		return "intermittent"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy is String's inverse, as the daemons' -policy flags and
// chaos campaign files spell a policy.
func ParsePolicy(s string) (PolicyKind, error) {
	for p := PolicyFull; p.Valid(); p++ {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("ckpt: unknown policy %q", s)
}

// Valid reports whether p is a known policy.
func (p PolicyKind) Valid() bool { return p <= PolicyIntermittent }

// decision is what a policy resolves each interval to.
type decision struct {
	kind wire.Kind
	// sinceBase selects rows modified since the last full baseline
	// (one-shot family) rather than during the last interval only
	// (consecutive).
	sinceBase bool
}

// policyState tracks the per-job information policies need across
// intervals: the sizes of incrementals since the last full baseline,
// expressed as fractions of the full checkpoint size (S_i in §5.1).
type policyState struct {
	kind PolicyKind
	// sizes holds S_1..S_i for incrementals taken since the last full.
	sizes []float64
	// haveFull records whether any full baseline exists yet.
	haveFull bool
}

func newPolicyState(kind PolicyKind) *policyState {
	return &policyState{kind: kind}
}

// decide picks full vs incremental for the next checkpoint.
// prospectiveSize is the would-be size of the incremental (fraction of a
// full checkpoint) if one were taken now; the intermittent predictor uses
// it as its S_i estimate.
func (ps *policyState) decide(prospectiveSize float64) decision {
	if !ps.haveFull || ps.kind == PolicyFull {
		return decision{kind: wire.KindFull}
	}
	switch ps.kind {
	case PolicyOneShot:
		return decision{kind: wire.KindIncremental, sinceBase: true}
	case PolicyConsecutive:
		return decision{kind: wire.KindIncremental, sinceBase: false}
	case PolicyIntermittent:
		if ps.predictFull(prospectiveSize) {
			return decision{kind: wire.KindFull}
		}
		return decision{kind: wire.KindIncremental, sinceBase: true}
	default:
		return decision{kind: wire.KindFull}
	}
}

// predictFull implements the §5.1 history predictor. With past incremental
// sizes S_1..S_i (fractions of a full checkpoint, S_0 = 1):
//
//	Fc = 1 + S_1 + ... + S_i   (projected cost of next i+1 intervals
//	                            if a full baseline is taken now)
//	Ic = (i+1) * S_i           (lower bound on cost if staying incremental)
//
// Take a full checkpoint iff Fc <= Ic.
func (ps *policyState) predictFull(prospectiveSize float64) bool {
	i := len(ps.sizes)
	if i == 0 {
		// No incremental history since the full; stay incremental.
		return false
	}
	si := ps.sizes[i-1]
	if prospectiveSize > si {
		// The next incremental will be at least its prospective size;
		// using the larger of the two tightens the bound.
		si = prospectiveSize
	}
	fc := 1 + stats.Sum(ps.sizes)
	ic := float64(i+1) * si
	return fc <= ic
}

// record updates the history after a checkpoint of the given kind and
// relative size is committed.
func (ps *policyState) record(kind wire.Kind, size float64) {
	if kind == wire.KindFull {
		ps.haveFull = true
		ps.sizes = ps.sizes[:0]
		return
	}
	ps.sizes = append(ps.sizes, size)
}
