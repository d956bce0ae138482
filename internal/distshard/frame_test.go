package distshard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
)

// sampleMsgs covers every frame type with a representative payload.
func sampleMsgs() []*Msg {
	wopts := engine.Options{Options: assembly.Options{K: 16, MinCount: 2}, Subarrays: 8}
	return []*Msg{
		{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion, K: 16, OptHash: optHash(wopts)}},
		{Type: MsgJob, Job: &Job{Shard: 3, Engine: "software", SpillPath: "/tmp/x/shard-0003.fasta", Opts: wopts}},
		{Type: MsgResult, Result: &WireReport{
			Shard: 3, Engine: "software", Family: 0,
			Contigs: []WireContig{{Seq: "ACGTACGT", EdgeCount: 5, MeanCoverage: 2.5}},
			Counts:  &assembly.OpCounts{ReadCount: 7, TotalKmers: 100},
		}},
		{Type: MsgError, Error: &WireError{Shard: 1, Msg: "engine exploded", Transient: true}},
		{Type: MsgBye},
	}
}

// TestFrameRoundTrip pins the codec identity: every frame type survives
// encode→decode with its JSON form intact.
func TestFrameRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			t.Fatalf("%s: write: %v", m.Type, err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", m.Type, err)
		}
		a, _ := json.Marshal(m)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: round-trip drift:\n in %s\nout %s", m.Type, a, b)
		}
	}
}

// TestFrameRejectsHostileInput covers the decoder's defences: clean EOF
// between frames, bad magic, a hostile length prefix (rejected before any
// allocation-sized read), truncated payloads, malformed JSON, and
// envelope-invariant violations.
func TestFrameRejectsHostileInput(t *testing.T) {
	header := func(n uint32) []byte {
		var hdr [8]byte
		copy(hdr[:4], frameMagic[:])
		binary.BigEndian.PutUint32(hdr[4:], n)
		return hdr[:]
	}
	if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want bare io.EOF", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"garbage magic", []byte("XXXXXXXXXXXXXXXX"), "bad frame magic"},
		{"mid-header EOF", header(8)[:5], "reading frame header"},
		{"hostile length", header(1 << 31), "exceeds cap"},
		{"max-plus-one length", header(MaxFramePayload + 1), "exceeds cap"},
		{"truncated payload", append(header(4096), []byte(`{"type":"bye"`)...), "truncated frame"},
		{"malformed json", append(header(9), []byte("not json!")...), "decoding frame payload"},
		{"unknown type", frameBytes(t, `{"type":"warp"}`), "unknown frame type"},
		{"job without payload", frameBytes(t, `{"type":"job"}`), "job frame without job payload"},
		{"hello without payload", frameBytes(t, `{"type":"hello"}`), "hello frame without handshake payload"},
		{"result without payload", frameBytes(t, `{"type":"result"}`), "result frame without report payload"},
		{"error without payload", frameBytes(t, `{"type":"error"}`), "error frame without error payload"},
	}
	for _, c := range cases {
		_, err := readFrame(bytes.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// frameBytes builds a well-framed message from raw JSON (for payloads the
// encoder itself would refuse to produce).
func frameBytes(t *testing.T, payload string) []byte {
	t.Helper()
	var buf bytes.Buffer
	magic := frameMagic
	buf.Write(magic[:])
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(payload)))
	buf.Write(n[:])
	buf.WriteString(payload)
	return buf.Bytes()
}

// TestOptionsHashDiscriminates pins the handshake fingerprint: identical
// options hash identically, and any scalar drift — the mismatched-binary
// scenario — changes the hash.
func TestOptionsHashDiscriminates(t *testing.T) {
	base := engine.Options{Options: assembly.Options{K: 16, MinCount: 2}, Subarrays: 8}
	if optHash(base) != optHash(base) {
		t.Fatal("identical options hash differently")
	}
	variants := []engine.Options{
		{Options: assembly.Options{K: 17, MinCount: 2}, Subarrays: 8},
		{Options: assembly.Options{K: 16, MinCount: 3}, Subarrays: 8},
		{Options: assembly.Options{K: 16, MinCount: 2, Scaffold: true}, Subarrays: 8},
		{Options: assembly.Options{K: 16, MinCount: 2}, Subarrays: 16},
	}
	for i, v := range variants {
		if optHash(v) == optHash(base) {
			t.Errorf("variant %d collides with the base options hash", i)
		}
	}
	// Ref and Counts are a run's inputs, not its parameters: they do not
	// cross the wire, so they must not move the fingerprint either.
	inputs := base
	inputs.Ref, inputs.Counts = genome.MustFromString("ACGT"), &assembly.OpCounts{ReadCount: 1}
	if optHash(inputs) != optHash(base) {
		t.Error("Ref/Counts changed the options hash")
	}
}

// TestRunWorkerProtocolErrors drives RunWorker over in-process pipes
// through its refusal paths: a version-skewed hello (echoed well-formed,
// then rejected) and a job whose options do not hash to the handshake.
func TestRunWorkerProtocolErrors(t *testing.T) {
	t.Run("version mismatch", func(t *testing.T) {
		in := new(bytes.Buffer)
		out := new(bytes.Buffer)
		writeFrame(in, &Msg{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion + 1, K: 16, OptHash: "x"}})
		err := RunWorker(in, out, nil)
		if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
			t.Fatalf("err = %v, want protocol version mismatch", err)
		}
		// The echo must still be well-formed so the coordinator can name
		// the worker's version instead of reading a closed pipe.
		echo, rerr := readFrame(out)
		if rerr != nil || echo.Type != MsgHello || echo.Hello.Proto != ProtoVersion {
			t.Fatalf("echo = %+v (err %v), want well-formed hello with proto %d", echo, rerr, ProtoVersion)
		}
	})
	t.Run("options hash mismatch", func(t *testing.T) {
		in := new(bytes.Buffer)
		out := new(bytes.Buffer)
		wopts := engine.Options{Options: assembly.Options{K: 16}}
		writeFrame(in, &Msg{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion, K: 16, OptHash: "0000000000000000"}})
		writeFrame(in, &Msg{Type: MsgJob, Job: &Job{Shard: 0, Engine: "software", SpillPath: "/nope", Opts: wopts}})
		err := RunWorker(in, out, nil)
		if err == nil || !strings.Contains(err.Error(), "does not match handshake") {
			t.Fatalf("err = %v, want options-hash mismatch", err)
		}
	})
	t.Run("clean bye", func(t *testing.T) {
		in := new(bytes.Buffer)
		out := new(bytes.Buffer)
		writeFrame(in, &Msg{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion, K: 16, OptHash: "x"}})
		writeFrame(in, &Msg{Type: MsgBye})
		if err := RunWorker(in, out, nil); err != nil {
			t.Fatalf("bye shutdown returned %v", err)
		}
	})
}

// FuzzFrameCodec is the differential fuzz target over the frame decoder:
// any byte stream the decoder accepts must re-encode and re-decode to the
// same message (and hostile length prefixes must fail cheaply instead of
// allocating). Wired into `make fuzz-smoke` alongside the genome and k-mer
// codecs.
func FuzzFrameCodec(f *testing.F) {
	for _, m := range sampleMsgs() {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var hostile [8]byte
	copy(hostile[:4], frameMagic[:])
	binary.BigEndian.PutUint32(hostile[4:], 1<<31)
	f.Add(hostile[:])
	f.Add([]byte("PDSF garbage that is not a frame"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only contract is no panic, no OOM
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		m2, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		a, _ := json.Marshal(m)
		b, _ := json.Marshal(m2)
		if !bytes.Equal(a, b) {
			t.Fatalf("codec round-trip drift:\n in %s\nout %s", a, b)
		}
	})
}
