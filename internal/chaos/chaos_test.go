package chaos

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/wire"
)

func runScenario(t *testing.T, sc *Scenario, rcfg RunnerConfig) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	rcfg.Logf = t.Logf
	res, err := Run(ctx, sc, rcfg)
	if err != nil {
		t.Fatalf("scenario %s: %v", sc.Name, err)
	}
	return res
}

// TestScenarioMatrix runs the builtin campaigns in-process — the small
// matrix under -short (the per-PR CI job), the full matrix otherwise.
func TestScenarioMatrix(t *testing.T) {
	scenarios := BuiltinScenarios()
	if testing.Short() {
		scenarios = SmallScenarios()
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res := runScenario(t, sc, RunnerConfig{})
			if !res.Passed() {
				for _, v := range res.Violations {
					t.Errorf("invariant violated: %s", v)
				}
			}
			if len(res.Committed) == 0 {
				t.Fatal("campaign committed no checkpoints — the scenario tested nothing")
			}
			for _, step := range res.Steps {
				t.Logf("step %d %-10s %5dms+%4dms %s", step.Index, step.Op, step.ExecMs, step.CheckMs, step.Detail)
			}
		})
	}
}

// TestFleetRunsPolicyFull: ckpt.PolicyFull is the zero PolicyKind, and a
// fleet whose spec names it writes a full checkpoint every time — the
// one-shot default belongs to a spec that names no policy.
func TestFleetRunsPolicyFull(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := NewFleet("policy-full", FleetSpec{Policy: ckpt.PolicyFull.String()}, RunnerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Lead(ctx, "leader-0"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []uint64{2, 4} {
		man, err := f.Checkpoint(ctx, step)
		if err != nil {
			t.Fatal(err)
		}
		if man.Kind != wire.KindFull.String() {
			t.Fatalf("checkpoint %d at step %d is %s, want full", man.ID, step, man.Kind)
		}
	}
}

// TestSmallMatrixNamesExist guards the CI subset against renames.
func TestSmallMatrixNamesExist(t *testing.T) {
	if len(SmallScenarios()) < 3 {
		t.Fatal("small matrix must keep at least 3 campaigns")
	}
	for _, sc := range SmallScenarios() {
		if sc == nil {
			t.Fatal("small matrix names a scenario that no longer exists")
		}
	}
}

// TestCheckerFiresOnInjectedPartialComposite is the harness's red test:
// with the commit fence deliberately bypassed — a composite manifest
// written whose shard manifests were never stored — the invariant
// checker MUST report violations. A checker that stays green here would
// be decorative.
func TestCheckerFiresOnInjectedPartialComposite(t *testing.T) {
	sc := &Scenario{
		Name:  "red-partial-composite",
		Fleet: FleetSpec{Shards: 2, Stores: 2},
		Steps: []Step{
			{Op: "lead", Holder: "leader-0"},
			{Op: "checkpoint", Step: 4},
			{Op: "inject-partial-composite", ID: 1},
		},
	}
	res := runScenario(t, sc, RunnerConfig{AllowInjection: true})
	if res.Passed() {
		t.Fatal("checker stayed green with a torn composite manifest in the store")
	}
	byInv := map[string]bool{}
	for _, v := range res.Violations {
		byInv[v.Invariant] = true
	}
	if !byInv["complete-composites"] {
		t.Errorf("torn composite not reported as complete-composites violation: %v", res.Violations)
	}
	if !byInv["id-convergence"] {
		t.Errorf("unexpected composite ID not reported as id-convergence violation: %v", res.Violations)
	}
	// The violations must pinpoint the injected composite, and only the
	// steps after injection may be red.
	for _, step := range res.Steps[:2] {
		if len(step.Violations) != 0 {
			t.Errorf("step %d (%s) red before the injection: %v", step.Index, step.Op, step.Violations)
		}
	}
}

// TestInjectionGated proves scenarios can't corrupt state unless the
// runner explicitly allows it.
func TestInjectionGated(t *testing.T) {
	sc := &Scenario{
		Name:  "gated",
		Fleet: FleetSpec{Shards: 1, Stores: 1},
		Steps: []Step{
			{Op: "lead", Holder: "leader-0"},
			{Op: "checkpoint", Step: 2},
			{Op: "inject-partial-composite", ID: 1},
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := Run(ctx, sc, RunnerConfig{Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), "AllowInjection") {
		t.Fatalf("injection without AllowInjection = %v, want gating error", err)
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"name":"x","steps":[{"op":"sleep","millis":5}]}`)); err == nil {
		t.Fatal("typo'd step field parsed silently")
	}
	sc, err := ParseScenario([]byte(`{
		"name": "ok",
		"fleet": {"shards": 2, "stores": 2},
		"steps": [
			{"op": "lead", "holder": "leader-0"},
			{"op": "checkpoint", "step": 4, "at": "after-prepare",
			 "target": "store:0", "fault": {"partition": true}, "expect": "fail"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Steps[1].Fault == nil || !sc.Steps[1].Fault.Partition {
		t.Fatalf("fault spec lost in parse: %+v", sc.Steps[1])
	}
}

// TestScenariosRoundTripJSON: every builtin campaign, and a fault that
// sets every link key, comes back unchanged through json.Marshal and
// ParseScenario — the flat keys of FaultSpec's embedded Link included.
// Campaign files written from these types are what chaosctl reads.
func TestScenariosRoundTripJSON(t *testing.T) {
	everyKey := &Scenario{
		Name:  "every-link-key",
		Fleet: FleetSpec{Shards: 2, Stores: 2},
		Steps: []Step{{Op: "fault", Target: "store:0", Fault: &FaultSpec{
			Link:      Link{LatencyMs: 30, JitterMs: 10, BandwidthBps: 64_000, DropProb: 0.25, Stall: true},
			Direction: "up",
		}}},
	}
	for _, sc := range append(BuiltinScenarios(), everyKey) {
		blob, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseScenario(blob)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Errorf("%s: round trip changed the campaign:\n got %+v\nwant %+v", sc.Name, got, sc)
		}
	}
	blob, _ := json.Marshal(everyKey.Steps[0].Fault)
	const want = `{"latency_ms":30,"jitter_ms":10,"bandwidth_bps":64000,"drop_prob":0.25,"stall":true,"direction":"up"}`
	if string(blob) != want {
		t.Errorf("fault JSON = %s, want the flat link keys %s", blob, want)
	}
}

// TestParseScenarioRefusesRemovedFleetKeys: the model seed, batch and
// shape and the disk compaction trigger are constants of the fleet, not
// campaign settings. A campaign that names one fails to parse rather
// than running on values it did not ask for.
func TestParseScenarioRefusesRemovedFleetKeys(t *testing.T) {
	for _, c := range []struct{ key, kv string }{
		{"seed", `"seed": 9`},
		{"batch", `"batch": 8`},
		{"table_rows", `"table_rows": [64, 64]`},
		{"dim", `"dim": 8`},
		{"compact_ratio", `"compact_ratio": 0.4`},
	} {
		t.Run(c.key, func(t *testing.T) {
			blob := `{"name": "x", "fleet": {"shards": 1, "stores": 1, ` + c.kv + `}, "steps": [{"op": "sleep", "ms": 1}]}`
			if _, err := ParseScenario([]byte(blob)); err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("ParseScenario = %v, want an unknown-field refusal", err)
			}
		})
	}
}

// TestMemFleetRefusesDiskDelays: a disk latency on a mem fleet is
// refused before anything starts, with an error naming the field, so a
// campaign cannot run slowed in-process and unslowed forked.
func TestMemFleetRefusesDiskDelays(t *testing.T) {
	for _, field := range []string{"disk_put_delay_ms", "disk_sync_delay_ms"} {
		t.Run(field, func(t *testing.T) {
			sc, err := ParseScenario([]byte(`{"name": "x", "fleet": {"shards": 1, "stores": 1,
				"store_backend": "mem", "` + field + `": 20}, "steps": [{"op": "sleep", "ms": 1}]}`))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if _, err := Run(ctx, sc, RunnerConfig{Logf: t.Logf}); err == nil || !strings.Contains(err.Error(), field) {
				t.Fatalf("Run = %v, want a refusal naming %s", err, field)
			}
		})
	}
}
