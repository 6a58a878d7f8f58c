package objstore

import (
	"errors"
	"testing"
)

// TestDecodeMembersRejectsDuplicatesAndBlanks holds validateMembers, the
// check every member list goes through, to the cases the store-backed
// membership record's decoder was written against. The record is gone
// (one way to name the store plane: the -store spec); the test keeps the
// name the suite knows it by.
func TestDecodeMembersRejectsDuplicatesAndBlanks(t *testing.T) {
	for _, c := range []struct {
		name  string
		addrs []string
	}{
		{"duplicate", []string{"a:1", "a:1"}},
		{"duplicate-nonadjacent", []string{"a:1", "b:2", "a:1"}},
		{"blank-line", []string{"a:1", "", "b:2"}},
		{"whitespace-line", []string{"a:1", "  ", "b:2"}},
		{"empty", []string{""}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := validateMembers(c.addrs, "test"); !errors.Is(err, ErrInvalidMembers) {
				t.Fatalf("validateMembers(%q) = %v, want ErrInvalidMembers", c.addrs, err)
			}
		})
	}
	if err := validateMembers([]string{"b:2", "a:1"}, "test"); err != nil {
		t.Fatalf("validateMembers(valid): %v", err)
	}
}

func TestConnectRejectsDuplicateSpec(t *testing.T) {
	// A duplicated address in a static -stores spec would register two
	// same-named backends and skew rendezvous hashing; Connect must
	// refuse before dialing anything.
	srv, err := NewServer("127.0.0.1:0", NewMemStore(MemConfig{}), ServerConfig{})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr()
	if _, err := Connect(addr+","+addr, ClientConfig{}); !errors.Is(err, ErrInvalidMembers) {
		t.Fatalf("Connect(dup spec) = %v, want ErrInvalidMembers", err)
	}
}
