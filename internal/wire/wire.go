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
	"math"

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

// Row is one embedding row inside a chunk: its index within the table, the
// row-wise optimizer accumulator (always fp32 — it is tiny relative to the
// vector), and the quantized vector payload.
type Row struct {
	Index uint32
	Accum float32
	Q     *quant.QVector
}

// Chunk is the unit of quantize-then-upload pipelining: a contiguous run
// of rows from a single table.
type Chunk struct {
	TableID uint32
	Rows    []Row
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// chunkMagic guards against decoding non-chunk objects.
const chunkMagic = 0x434B5031 // "CKP1"

// minV1Row is the smallest v1 row on the wire: a 12-byte row header and
// the 14-byte fixed part of an empty QVector.
const minV1Row = 12 + 14

// EncodedLen returns the exact size AppendTo will produce, for
// presizing buffers. Rows with nil vectors contribute only their
// header; AppendTo rejects them anyway.
func (c *Chunk) EncodedLen() int {
	if c.compactEncodable() {
		return c.compactEncodedLen()
	}
	size := 12 + 4 // header + CRC
	for i := range c.Rows {
		size += 12
		if q := c.Rows[i].Q; q != nil {
			size += q.EncodedLen()
		}
	}
	return size
}

// AppendTo appends the chunk's encoding, with a trailing CRC32-C over
// it, to dst and returns the extended slice. It is the encoder of
// quantized rows, and it picks the layout from the rows: CKP2
// (compact.go) whenever they share one uniform bit-width and dimension,
// which is every chunk the engine's uniform quantizers and fp32 produce,
// and the v1 layout only for what CKP2 cannot hold — per-row k-means
// codebooks (or rows that differ in shape). RowBuf.DecodeAlias reads
// both. The
// CKP2 writer has a second entry, AppendF32Chunk, which writes the same
// bytes for fp32 rows read straight from a table.
//
// Rows are serialized in place — no per-row blob allocations — so
// encoding into a pooled buffer with sufficient capacity performs zero
// allocations. On error the returned slice keeps dst's backing array
// (possibly partially extended), so pooled buffers survive failed
// encodes.
func (c *Chunk) AppendTo(dst []byte) ([]byte, error) {
	if c.compactEncodable() {
		return c.appendCompact(dst)
	}
	return c.appendV1(dst)
}

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
func SegmentsPerChunk(p quant.Params, dim, segRows int) int {
	const segments = 4
	const overhead = 20 + 4 // the CKP2 header and CRC; a v1 chunk's are smaller
	return max(1, min(segments, (rpc.MaxPooled-overhead)/(segRows*rowLen(p, dim))))
}

// rowLen returns the bytes one row of dim elements quantized under p
// adds to the chunk AppendTo writes for it: CKP2 for fp32 and the
// uniform methods, CKP1 for k-means, whose rows carry a codebook each.
func rowLen(p quant.Params, dim int) int {
	switch p.Method {
	case quant.MethodNone:
		return compactRowLen(dim, 32)
	case quant.MethodKMeans:
		return minV1Row + packedCodeLen(dim, p.Bits) + 2 + 4<<p.Bits
	default:
		return compactRowLen(dim, p.Bits)
	}
}

// appendV1 appends the v1 ("CKP1") layout: a full QVector per row. The
// emitted bytes are pinned by the v1_* golden fixtures.
func (c *Chunk) appendV1(dst []byte) ([]byte, error) {
	base := len(dst)
	// Header: magic u32 | tableID u32 | rowCount u32.
	dst = binary.LittleEndian.AppendUint32(dst, chunkMagic)
	dst = binary.LittleEndian.AppendUint32(dst, c.TableID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Rows)))
	for i := range c.Rows {
		r := &c.Rows[i]
		if r.Q == nil {
			return dst, fmt.Errorf("wire: row %d has nil quantized vector", i)
		}
		dst = binary.LittleEndian.AppendUint32(dst, r.Index)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Q.EncodedLen()))
		// Accum as raw fp32 bits.
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(r.Accum))
		var err error
		dst, err = r.Q.AppendBinary(dst)
		if err != nil {
			return dst, fmt.Errorf("wire: row %d: %w", i, err)
		}
	}
	return appendCRC(dst, base), nil
}

// RowBuf is caller-owned storage for the rows of one decoded chunk at a
// time: the Row and QVector structs that describe a chunk outweigh the
// chunk itself (88 bytes a row against as little as 24 on the wire), so a
// loop that decodes many chunks and is done with each before the next —
// the checkpoint walker's workers — keeps one RowBuf and allocates
// nothing per chunk once it has grown to the largest. The zero value is
// ready to use; a RowBuf is not safe for concurrent use.
type RowBuf struct {
	chunk Chunk
	rows  []Row
	qs    []quant.QVector
}

// take returns a chunk of table tableID with n Row slots, and n QVector
// slots for them to point at: b's own, grown when it has fewer, or fresh
// ones when there is no buffer. Callers have tied n to the size of the
// object before they ask, so a claimed count never sizes anything. The
// slots hold whatever the last chunk left in them; the decoders
// overwrite every field of every one.
func (b *RowBuf) take(tableID uint32, n int) (*Chunk, []quant.QVector) {
	if b == nil {
		return &Chunk{TableID: tableID, Rows: make([]Row, n)}, make([]quant.QVector, n)
	}
	if cap(b.rows) < n {
		b.rows, b.qs = make([]Row, n), make([]quant.QVector, n)
	}
	b.chunk = Chunk{TableID: tableID, Rows: b.rows[:n]}
	return &b.chunk, b.qs[:n]
}

// DecodeAlias parses and CRC-verifies a chunk (either layout) without
// copying the codes out of it: every row's packed codes alias data's
// backing array directly. The caller must keep data alive and unmodified
// for as long as the chunk, or any row vector taken from it, is in use;
// mutating data afterwards corrupts the decoded rows. The restore paths
// consume each freshly fetched blob (dequantize or index-scan it) before
// it goes out of scope. The returned chunk, its rows and their vectors
// live in b, so all of it is dead at b's next DecodeAlias; a nil b
// allocates them.
func (b *RowBuf) DecodeAlias(data []byte) (*Chunk, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("wire: chunk too short: %d bytes", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("wire: chunk CRC mismatch: 0x%08x != 0x%08x", got, want)
	}
	switch m := binary.LittleEndian.Uint32(body); m {
	case chunkMagic:
		// v1 layout, decoded below.
	case compactMagic:
		return b.decodeCompact(body)
	default:
		return nil, fmt.Errorf("wire: bad chunk magic 0x%08x", m)
	}
	n := int(binary.LittleEndian.Uint32(body[8:]))
	// Checked before anything is sized by n: the row slots below cost
	// ~88 bytes a row, a row on the wire at least minV1Row.
	if n < 0 || n > (len(body)-12)/minV1Row {
		return nil, fmt.Errorf("wire: implausible row count %d in %d-byte chunk", n, len(body))
	}
	off := 12
	c, qs := b.take(binary.LittleEndian.Uint32(body[4:]), n)
	for i := 0; i < n; i++ {
		if off+12 > len(body) {
			return nil, fmt.Errorf("wire: truncated row header at row %d", i)
		}
		idx := binary.LittleEndian.Uint32(body[off:])
		blobLen := int(binary.LittleEndian.Uint32(body[off+4:]))
		accum := math.Float32frombits(binary.LittleEndian.Uint32(body[off+8:]))
		off += 12
		if blobLen < 0 || off+blobLen > len(body) {
			return nil, fmt.Errorf("wire: truncated row payload at row %d", i)
		}
		// UnmarshalBinaryAlias assigns every field of *q, Codebook included.
		q := &qs[i]
		if err := q.UnmarshalBinaryAlias(body[off : off+blobLen]); err != nil {
			return nil, fmt.Errorf("wire: row %d: %w", i, err)
		}
		off += blobLen
		c.Rows[i] = Row{Index: idx, Accum: accum, Q: q}
	}
	if off != len(body) {
		return nil, fmt.Errorf("wire: %d trailing bytes in chunk", len(body)-off)
	}
	return c, nil
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
	// DenseKey locates the serialized MLP state object. Empty means the
	// manifest carries no dense state (shard manifests: the coordinator
	// stores the replicated MLP state once, at the composite level).
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
