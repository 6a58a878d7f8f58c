package storetest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/objstore"
)

// TestHookConformance: a Hook that forwards — with no Around, or one
// that only calls do — is the store it wraps, by the whole contract.
func TestHookConformance(t *testing.T) {
	for name, around := range map[string]func(context.Context, Op, string, func() error) error{
		"nil":     nil,
		"forward": func(_ context.Context, _ Op, _ string, do func() error) error { return do() },
	} {
		t.Run(name, func(t *testing.T) {
			Run(t, func(t *testing.T) objstore.Store {
				return &Hook{Store: objstore.NewMemStore(objstore.MemConfig{}), Around: around}
			})
		})
	}
}

// TestHookSeesEachOp: Around sees each of the five operations once, with
// the key it names (List's prefix), and an error Around returns without
// calling do leaves the wrapped store untouched.
func TestHookSeesEachOp(t *testing.T) {
	ctx := context.Background()
	inner := objstore.NewMemStore(objstore.MemConfig{})
	var seen []string
	var refuse error
	h := &Hook{Store: inner, Around: func(_ context.Context, op Op, key string, do func() error) error {
		seen = append(seen, fmt.Sprintf("%s %s", op, key))
		if refuse != nil {
			return refuse
		}
		return do()
	}}
	if err := h.Put(ctx, "a/k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := h.Get(ctx, "a/k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if n, err := h.Stat(ctx, "a/k"); err != nil || n != 1 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	if keys, err := h.List(ctx, "a/"); err != nil || len(keys) != 1 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := h.Delete(ctx, "a/k"); err != nil {
		t.Fatal(err)
	}
	want := []string{"put a/k", "get a/k", "stat a/k", "list a/", "delete a/k"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("Around saw %q, want %q", seen, want)
	}

	if err := inner.Put(ctx, "b/k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	refuse = errors.New("refused")
	if err := h.Put(ctx, "b/k", []byte("new")); err != refuse {
		t.Fatalf("Put = %v, want the refusal", err)
	}
	if err := h.Put(ctx, "b/other", []byte("new")); err != refuse {
		t.Fatalf("Put = %v, want the refusal", err)
	}
	if err := h.Delete(ctx, "b/k"); err != refuse {
		t.Fatalf("Delete = %v, want the refusal", err)
	}
	if v, err := h.Get(ctx, "b/k"); v != nil || err != refuse {
		t.Fatalf("Get = %q, %v, want no value and the refusal", v, err)
	}
	if keys, err := h.List(ctx, "b/"); keys != nil || err != refuse {
		t.Fatalf("List = %v, %v, want no keys and the refusal", keys, err)
	}
	if n, err := h.Stat(ctx, "b/k"); n != 0 || err != refuse {
		t.Fatalf("Stat = %d, %v, want 0 and the refusal", n, err)
	}
	keys, err := inner.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := inner.Get(ctx, "b/k"); fmt.Sprint(keys) != "[b/k]" || err != nil || string(v) != "old" {
		t.Fatalf("inner store holds %v with b/k = %q (%v), want only b/k = old", keys, v, err)
	}
	if u := inner.Usage(); u.Puts != 2 || u.Gets != 2 || u.Deletes != 1 {
		t.Fatalf("inner store saw %d Puts, %d Gets and %d Deletes, want 2, 2 and 1", u.Puts, u.Gets, u.Deletes)
	}
}
