package ckpt

import (
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
)

// dialTestServer stands up a real objstore.Server over TCP loopback and
// returns a connected Client — the full Engine → Client → protocol →
// Server → MemStore path the trainer would run against a remote store.
func dialTestServer(t *testing.T) *objstore.Client {
	t.Helper()
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
	})
	client, err := objstore.Dial(srv.Addr(), objstore.ClientConfig{PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestEngineOverTCPRoundTrip(t *testing.T) {
	client := dialTestServer(t)
	f := newFixture(t, Config{Store: client, Policy: PolicyOneShot,
		Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 8}})
	for i := 0; i < 3; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
			t.Fatal(err)
		}
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(f.m, m2, f.gen, 0.05) {
		t.Fatal("TCP round-trip restore diverged")
	}
	// The scrub also runs over the wire.
	vs, err := f.rest.VerifyAll(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if !v.OK() {
			t.Fatalf("checkpoint %d flagged over TCP: %v", v.ID, v.Problems)
		}
	}
}

func TestCoordinatorOverTCPSharded(t *testing.T) {
	// Four shard writers pipelining uploads through one pooled TCP
	// client concurrently — the connection pool sees real concurrent
	// acquire/release traffic from multiple writer goroutines.
	client := dialTestServer(t)
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
		Config: Config{JobID: "tcp4", Store: client, Policy: PolicyOneShot,
			ChunkRows: 64, uploaders: 3},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := NewRestorer("tcp4", client)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, f.m, m2)
}
