// Package wire defines the on-storage checkpoint format: CRC-protected
// chunks of (possibly quantized) embedding rows, and the JSON manifest
// that makes a set of chunks a valid, restorable checkpoint.
//
// The format follows §4.4/§5.2 of the paper: the optimizer works on chunks
// of embedding vectors at a time so quantization and upload pipeline, and
// a checkpoint becomes valid only when its manifest is durably stored
// after all chunks ("when all nodes finish storing their part ... the
// controller will declare a new valid checkpoint").
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/quant"
	"repro/internal/rpc"
)

// Kind discriminates full baseline checkpoints from incremental ones.
type Kind uint8

const (
	// KindFull is a full baseline checkpoint containing every row.
	KindFull Kind = iota
	// KindIncremental contains only rows modified since its base
	// (one-shot / intermittent policies) or since its parent
	// (consecutive policy).
	KindIncremental
)

// String names the kind for manifests and logs.
func (k Kind) String() string {
	if k == KindFull {
		return "full"
	}
	return "incremental"
}

// Row is one embedding row staged for Chunk.AppendTo: its index within
// the table, the row-wise optimizer accumulator, and the quantized vector
// payload.
type Row struct {
	Index uint32
	Accum float32
	Q     *quant.QVector
}

// Chunk is a run of staged rows from a single table, the input of
// AppendTo. The engine stages no rows: it writes each chunk, the unit of
// quantize-then-upload pipelining, through a ChunkWriter.
type Chunk struct {
	TableID uint32
	Rows    []Row
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SegmentsPerChunk returns how many segments of segRows rows one chunk
// of dim-element rows quantized under p holds: four, at every bit width,
// unless four would encode to more than rpc.MaxPooled bytes — then as
// many as fit, and at least one. A Put or Get of a few tens of KiB pays
// mostly its fixed per-operation cost, so a chunk of four segments moves
// the same bytes in a quarter of the operations; the ceiling keeps every
// chunk's Put buffer and Get body in the body pool. More segments do not
// pay: a chunk is also the unit of encode work, and a coarser one
// starves the encoders of a quantized commit. Whole segments keep the
// row positions the adaptive quantizer samples at.
//
// A row is sized with its longest index, binary.MaxVarintLen32 bytes, so
// the ceiling holds for any indices.
func SegmentsPerChunk(p quant.Params, dim, segRows int) int {
	const segments = 4
	row := fixedRowLen(dim, p.StoredBits()) + binary.MaxVarintLen32
	return max(1, min(segments, (rpc.MaxPooled-headerLen-crcLen)/(segRows*row)))
}

// TableManifest records one table's chunk objects within a checkpoint.
type TableManifest struct {
	TableID int `json:"table_id"`
	Rows    int `json:"rows"`
	Dim     int `json:"dim"`
	// StoredRows is the number of rows actually serialized (== Rows for
	// full checkpoints, the modified count for incrementals).
	StoredRows int      `json:"stored_rows"`
	ChunkKeys  []string `json:"chunk_keys"`
}

// QuantInfo summarizes the quantization applied to a checkpoint.
type QuantInfo struct {
	Method  string  `json:"method"`
	Bits    int     `json:"bits"`
	NumBins int     `json:"num_bins,omitempty"`
	Ratio   float64 `json:"ratio,omitempty"`
}

// Manifest makes a checkpoint self-describing and restorable. It is the
// last object written; its presence defines checkpoint validity.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	JobID         string `json:"job_id"`
	// ID is the checkpoint sequence number within the job.
	ID int `json:"id"`
	// Kind is "full" or "incremental".
	Kind string `json:"kind"`
	// BaseID is the full baseline this incremental builds on (one-shot /
	// intermittent), or -1 for full checkpoints.
	BaseID int `json:"base_id"`
	// ParentID is the immediately preceding checkpoint in a consecutive
	// chain, or -1.
	ParentID int `json:"parent_id"`
	// SinceBase is true for incrementals that contain every row modified
	// since BaseID (one-shot/intermittent policies): restore needs only
	// [base, this]. False means a consecutive-chain link: restore needs
	// every link from the base forward.
	SinceBase bool `json:"since_base,omitempty"`
	// Step is the number of trained batches at snapshot time.
	Step uint64 `json:"step"`
	// ReaderNextSample and ReaderBatchSize are the reader state (§4.1).
	ReaderNextSample uint64          `json:"reader_next_sample"`
	ReaderBatchSize  int             `json:"reader_batch_size"`
	Quant            QuantInfo       `json:"quant"`
	Tables           []TableManifest `json:"tables"`
	// DenseKey locates the serialized MLP state object; empty, none.
	// Shard 0 stores it once per checkpoint, in its own scope, and the
	// composite names it again: a restore reads the composite's.
	DenseKey string `json:"dense_key,omitempty"`
	// PayloadBytes is the total bytes of chunk + dense objects.
	PayloadBytes int64 `json:"payload_bytes"`

	// ShardCount > 0 marks a composite manifest, the commit record of a
	// checkpoint: every checkpoint has one, and it is written only after
	// every shard's objects — chunks and the shard's own manifest — are
	// durably stored, so its presence certifies the whole checkpoint (the
	// paper's "when all nodes finish storing their part ... the controller
	// will declare a new valid checkpoint"). Zero means a shard manifest,
	// one link of one shard's chain.
	ShardCount int `json:"shard_count,omitempty"`
	// ShardManifestKeys locates shard s's manifest at index s.
	ShardManifestKeys []string `json:"shard_manifest_keys,omitempty"`
	// TableShards maps table ID -> owning shard. The assignment is fixed
	// for the life of a job so per-shard incremental chains stay
	// self-contained.
	TableShards map[int]int `json:"table_shards,omitempty"`
}

// Composite reports whether m is a sharded composite manifest whose
// payload lives in per-shard manifests rather than in m.Tables.
func (m *Manifest) Composite() bool { return m.ShardCount > 0 }

// CurrentFormatVersion is the manifest format this package writes.
const CurrentFormatVersion = 1

// EncodeManifest serializes the manifest as JSON.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if m.FormatVersion == 0 {
		m.FormatVersion = CurrentFormatVersion
	}
	return json.Marshal(m)
}

// DecodeManifest parses and validates a manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wire: manifest: %w", err)
	}
	if m.FormatVersion != CurrentFormatVersion {
		return nil, fmt.Errorf("wire: unsupported manifest version %d", m.FormatVersion)
	}
	if m.Kind != KindFull.String() && m.Kind != KindIncremental.String() {
		return nil, fmt.Errorf("wire: unknown checkpoint kind %q", m.Kind)
	}
	if m.ShardCount < 0 {
		return nil, fmt.Errorf("wire: negative shard count %d", m.ShardCount)
	}
	if m.ShardCount > 0 && len(m.ShardManifestKeys) != m.ShardCount {
		return nil, fmt.Errorf("wire: composite manifest has %d shard keys, want %d",
			len(m.ShardManifestKeys), m.ShardCount)
	}
	for table, s := range m.TableShards {
		if s < 0 || s >= m.ShardCount {
			return nil, fmt.Errorf("wire: table %d assigned to shard %d, want [0,%d)", table, s, m.ShardCount)
		}
	}
	return &m, nil
}

// Key helpers define the object layout:
//
//	<job>/ckpt/<id>/manifest
//	<job>/ckpt/<id>/dense
//	<job>/ckpt/<id>/table/<t>/chunk/<n>

// ManifestKey returns the manifest object key for checkpoint id.
func ManifestKey(jobID string, id int) string {
	return fmt.Sprintf("%s/ckpt/%08d/manifest", jobID, id)
}

// DenseKey returns the dense-state object key.
func DenseKey(jobID string, id int) string {
	return fmt.Sprintf("%s/ckpt/%08d/dense", jobID, id)
}

// ChunkKey returns the object key for chunk n of table t.
func ChunkKey(jobID string, id, table, n int) string {
	return fmt.Sprintf("%s/ckpt/%08d/table/%04d/chunk/%06d", jobID, id, table, n)
}

// CheckpointPrefix returns the key prefix of all of checkpoint id's objects.
func CheckpointPrefix(jobID string, id int) string {
	return fmt.Sprintf("%s/ckpt/%08d/", jobID, id)
}

// JobPrefix returns the key prefix of all of a job's checkpoints.
func JobPrefix(jobID string) string {
	return fmt.Sprintf("%s/ckpt/", jobID)
}

// Sharded layout: each shard writer operates as an ordinary engine under
// a shard-scoped job ID, so its objects live at
//
//	<job>/shard/<s>/ckpt/<id>/...
//
// outside JobPrefix — a plain manifest listing of the job sees only its
// composite manifests.

// ShardJobID returns the scoped job ID shard s's writer checkpoints under.
func ShardJobID(jobID string, shard int) string {
	return fmt.Sprintf("%s/shard/%04d", jobID, shard)
}

// ShardScopePrefix returns the key prefix of all shard-scoped objects of
// a job, across shards and checkpoint IDs.
func ShardScopePrefix(jobID string) string {
	return jobID + "/shard/"
}
