// Package distshard lifts the out-of-core sharded assembly protocol across
// process boundaries: a coordinator partitions the input into spill files
// (internal/shard.Partition), launches N worker processes — Config.WorkerCmd,
// a binary serving RunWorker — over stdin/stdout pipes, dispatches one spill
// file per job, and merges the per-shard reports through the exported
// in-process merge path (shard.Merge), so the merged contigs are
// byte-identical to both the in-process sharded run and the unsharded run
// for count-independent options. This is the ROADMAP's "one big box → a
// fleet" step; see DESIGN.md §17.
//
// Wire protocol: length-prefixed JSON frames. Every frame is an 8-byte
// header — 4 magic bytes "PDSF" then a big-endian uint32 payload length —
// followed by the JSON encoding of one Msg. The first exchange is a
// handshake: the coordinator sends a hello carrying the protocol version,
// k, and a hash of the run options; the worker verifies the version
// against its own compiled-in constant and echoes a hello carrying its
// version, so mismatched binaries on either side fail fast before any work
// is dispatched. Jobs then carry the engine name, the spill-file path, and
// the full options (whose hash the worker re-checks against the
// handshake); the worker answers each job with exactly one result or error
// frame. A bye frame (or stdin EOF) shuts the worker down cleanly.
//
// The payload length is bounded by MaxFramePayload and the payload is read
// incrementally, so a hostile or corrupt length prefix costs at most the
// bytes that actually arrived, never a length-sized allocation.
package distshard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/perfmodel"
	"pimassembler/internal/sched"
)

// ProtoVersion is this binary's wire-protocol version. The handshake
// carries it in both directions; any mismatch aborts the worker before a
// job is dispatched.
const ProtoVersion = 3

// MaxFramePayload caps one frame's JSON payload. A length prefix beyond it
// is rejected as hostile or corrupt before any payload is read.
const MaxFramePayload = 256 << 20

// frameMagic opens every frame; garbage on the pipe fails the very first
// header check instead of being interpreted as a length.
var frameMagic = [4]byte{'P', 'D', 'S', 'F'}

// MsgType discriminates the frame payloads.
type MsgType string

const (
	// MsgHello is the handshake, sent coordinator→worker and echoed back.
	MsgHello MsgType = "hello"
	// MsgJob dispatches one spill file to a worker.
	MsgJob MsgType = "job"
	// MsgResult answers a job with the shard's wire report.
	MsgResult MsgType = "result"
	// MsgError answers a job with a failure (Transient marks it retryable).
	MsgError MsgType = "error"
	// MsgBye asks the worker to exit cleanly; it carries no payload.
	MsgBye MsgType = "bye"
)

// Msg is the frame envelope: Type plus exactly the matching payload.
type Msg struct {
	Type   MsgType     `json:"type"`
	Hello  *Hello      `json:"hello,omitempty"`
	Job    *Job        `json:"job,omitempty"`
	Result *WireReport `json:"result,omitempty"`
	Error  *WireError  `json:"error,omitempty"`
}

// Hello is the handshake payload. The coordinator fills all three fields
// from its run; the worker echoes K and OptHash verbatim and substitutes
// its own ProtoVersion, so each side checks the other's binary.
type Hello struct {
	Proto   int    `json:"proto"`
	K       int    `json:"k"`
	OptHash string `json:"optHash"`
}

// Job dispatches one shard: the spill file to stream, the engine to run it
// on, and the full run options (hash-checked against the handshake). Opts
// is engine.Options as it stands: its scalar pipeline parameters cross the
// wire, Ref and Counts (tagged json:"-") never do — quality scoring happens
// in the coordinator's merge pass, and counts-only analytical runs have no
// spill file to dispatch.
type Job struct {
	Shard     int            `json:"shard"`
	Engine    string         `json:"engine"`
	SpillPath string         `json:"spillPath"`
	Opts      engine.Options `json:"opts"`
}

// WireError is a worker-reported job failure. Transient mirrors
// jobqueue.Transient: the coordinator retries transient failures within
// the shard's attempt budget and treats the rest as terminal.
type WireError struct {
	Shard     int    `json:"shard"`
	Msg       string `json:"msg"`
	Transient bool   `json:"transient"`
}

// Error implements error.
func (e *WireError) Error() string {
	return fmt.Sprintf("distshard: worker error on shard %d: %s", e.Shard, e.Msg)
}

// optHash fingerprints the options for the handshake and the per-job
// check: FNV-64a over their JSON encoding (struct field order is fixed, so
// the encoding is deterministic).
func optHash(o engine.Options) string {
	b, err := json.Marshal(o)
	if err != nil {
		// What Options encodes is a closed set of scalars; Marshal cannot
		// fail on it.
		panic(fmt.Sprintf("distshard: hashing options: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// WireContig is one contig on the wire: the ACGT text plus its evidence.
type WireContig struct {
	Seq          string  `json:"seq"`
	EdgeCount    int     `json:"edgeCount"`
	MeanCoverage float64 `json:"meanCoverage"`
}

// WireScaffold is one stage-3 scaffold on the wire.
type WireScaffold struct {
	Seq     string `json:"seq"`
	Contigs int    `json:"contigs"`
}

// WireFunctional is the functional family's aggregate view: exactly what
// the merge algebra consumes (commands and energy summed, makespan maxed).
// The per-stage schedules and command histogram stay worker-side — the
// coordinator never needs them.
type WireFunctional struct {
	Commands        int64        `json:"commands"`
	SerialLatencyNS float64      `json:"serialLatencyNS"`
	EnergyPJ        float64      `json:"energyPJ"`
	Subarrays       int          `json:"subarrays"`
	Makespan        sched.Result `json:"makespan"`
}

// WireReport is one shard's engine.Report on the wire: contigs, scaffolds,
// the workload operation counts, and the family-specific aggregates. The
// Eulerian walk and diagnostic error are deliberately dropped — the merge
// pass re-derives both on the union graph.
type WireReport struct {
	Shard      int                    `json:"shard"`
	Engine     string                 `json:"engine"`
	Family     int                    `json:"family"`
	Contigs    []WireContig           `json:"contigs"`
	Scaffolds  []WireScaffold         `json:"scaffolds,omitempty"`
	Counts     *assembly.OpCounts     `json:"counts,omitempty"`
	Timings    *assembly.StageTimings `json:"timings,omitempty"`
	Functional *WireFunctional        `json:"functional,omitempty"`
	Cost       *perfmodel.StageCost   `json:"cost,omitempty"`
}

// validate checks the envelope invariant: a known type carrying its
// payload. Unknown extra payloads are tolerated (forward compatibility);
// a missing required payload is a protocol error.
func (m *Msg) validate() error {
	switch m.Type {
	case MsgHello:
		if m.Hello == nil {
			return fmt.Errorf("distshard: hello frame without handshake payload")
		}
	case MsgJob:
		if m.Job == nil {
			return fmt.Errorf("distshard: job frame without job payload")
		}
	case MsgResult:
		if m.Result == nil {
			return fmt.Errorf("distshard: result frame without report payload")
		}
	case MsgError:
		if m.Error == nil {
			return fmt.Errorf("distshard: error frame without error payload")
		}
	case MsgBye:
		// No payload.
	default:
		return fmt.Errorf("distshard: unknown frame type %q", m.Type)
	}
	return nil
}

// writeFrame encodes one message as a length-prefixed frame.
func writeFrame(w io.Writer, m *Msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("distshard: encoding frame: %w", err)
	}
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("distshard: frame payload %d bytes exceeds cap %d", len(payload), MaxFramePayload)
	}
	var hdr [8]byte
	copy(hdr[:4], frameMagic[:])
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("distshard: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("distshard: writing frame payload: %w", err)
	}
	return nil
}

// readFrame decodes the next frame. io.EOF (verbatim) means the stream
// ended cleanly between frames; any other error is a protocol failure —
// bad magic, a hostile length prefix, a truncated payload, or malformed
// JSON. The payload is copied incrementally, so a corrupt length costs at
// most the bytes that actually arrived.
func readFrame(r io.Reader) (*Msg, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("distshard: reading frame header: %w", err)
	}
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return nil, fmt.Errorf("distshard: bad frame magic %q", hdr[:4])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("distshard: frame payload length %d exceeds cap %d (hostile or corrupt prefix)", n, MaxFramePayload)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("distshard: truncated frame (%d of %d payload bytes): %w", buf.Len(), n, err)
	}
	m := new(Msg)
	if err := json.Unmarshal(buf.Bytes(), m); err != nil {
		return nil, fmt.Errorf("distshard: decoding frame payload: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}
