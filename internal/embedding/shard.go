package embedding

import (
	"fmt"
	"math/rand"
	"sort"
)

// ShardedModel is the model-parallel layout of the sparse layer: whole
// embedding tables assigned to trainer nodes (§2.1 — "the large footprint
// of the sparse layer requires the distribution of the embedding tables
// across multiple devices"). Assignment is greedy by byte size so node
// footprints stay balanced, mirroring how production placements balance
// HBM usage.
type ShardedModel struct {
	Tables []*Table
	// owner[tableID] = node index
	owner map[int]int
	nodes int
}

// TableSpec describes one embedding table to create.
type TableSpec struct {
	Rows int
	Dim  int
	// InitScale is the uniform init range; zero means 0.01.
	InitScale float32
}

// NewSharded creates the given tables and assigns them to nodes, largest
// first onto the least-loaded node. rng seeds the weight init.
func NewSharded(specs []TableSpec, nodes int, rng *rand.Rand) (*ShardedModel, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("embedding: nodes must be positive, got %d", nodes)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("embedding: no table specs")
	}
	m := &ShardedModel{owner: make(map[int]int, len(specs)), nodes: nodes}
	for id, s := range specs {
		scale := s.InitScale
		if scale == 0 {
			scale = 0.01
		}
		if s.Rows <= 0 || s.Dim <= 0 {
			return nil, fmt.Errorf("embedding: table %d invalid spec %dx%d", id, s.Rows, s.Dim)
		}
		m.Tables = append(m.Tables, NewTable(id, s.Rows, s.Dim, scale, rng))
	}
	Place(m.owner, m.Tables, nodes)
	return m, nil
}

// Place gives every table that owner does not yet place a node in
// [0, nodes): largest table first onto the node holding the fewest bytes,
// counting the tables owner already places. This is the one table
// placement, for the trainer nodes (NewSharded) and for the checkpoint
// shards of a job that pins none (ckpt.Coordinator).
func Place(owner map[int]int, tables []*Table, nodes int) {
	load := make([]int64, nodes)
	var open []*Table
	for _, t := range tables {
		if n, ok := owner[t.ID]; ok {
			load[n] += t.SizeBytes()
		} else {
			open = append(open, t)
		}
	}
	sort.Slice(open, func(a, b int) bool { return open[a].SizeBytes() > open[b].SizeBytes() })
	for _, t := range open {
		best := 0
		for n := 1; n < nodes; n++ {
			if load[n] < load[best] {
				best = n
			}
		}
		owner[t.ID] = best
		load[best] += t.SizeBytes()
	}
}

// Nodes returns the number of trainer nodes in the placement.
func (m *ShardedModel) Nodes() int { return m.nodes }

// TablesOn returns the tables owned by node n, ordered by table ID.
func (m *ShardedModel) TablesOn(n int) []*Table {
	var out []*Table
	for _, t := range m.Tables {
		if m.owner[t.ID] == n {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Table returns the table with the given ID, or nil.
func (m *ShardedModel) Table(id int) *Table {
	for _, t := range m.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// TotalRows returns the number of embedding rows across tables.
func (m *ShardedModel) TotalRows() int {
	n := 0
	for _, t := range m.Tables {
		n += t.Rows
	}
	return n
}
