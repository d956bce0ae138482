package distshard

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
)

// RunWorker serves one worker process over its stdin/stdout pipes: perform
// the handshake, then answer job frames with result or error frames until
// a bye frame or EOF. cmd/assemble's `-worker` mode (and the test
// harnesses) call this with the process's real pipes; reg nil means the
// default engine registry — the same one the coordinator validated names
// against, since both ends are the same binary.
//
// RunWorker returns nil on a clean shutdown (bye or EOF between frames)
// and an error on any protocol violation: a version-mismatched handshake,
// a job whose options do not hash to the handshake's fingerprint, or a
// malformed frame. Engine failures are not protocol errors — they are
// reported to the coordinator as error frames (with the jobqueue transient
// classification) and the worker keeps serving.
func RunWorker(r io.Reader, w io.Writer, reg *engine.Registry) error {
	if reg == nil {
		reg = engine.Default()
	}
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)

	m, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("distshard: worker handshake: %w", err)
	}
	if m.Type != MsgHello {
		return fmt.Errorf("distshard: worker handshake: expected hello, got %q", m.Type)
	}
	hello := m.Hello
	// Echo the handshake with this binary's own protocol version before
	// enforcing the match, so a mismatched coordinator reads a well-formed
	// reply naming the worker's version instead of a broken pipe.
	reply := &Msg{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion, K: hello.K, OptHash: hello.OptHash}}
	if err := writeFrame(bw, reply); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("distshard: worker handshake: %w", err)
	}
	if hello.Proto != ProtoVersion {
		return fmt.Errorf("distshard: protocol version mismatch: coordinator speaks %d, this binary speaks %d", hello.Proto, ProtoVersion)
	}

	for {
		m, err := readFrame(br)
		if err == io.EOF {
			// Coordinator closed the pipe: clean shutdown.
			return nil
		}
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgBye:
			return nil
		case MsgJob:
			if got := optHash(m.Job.Opts); got != hello.OptHash {
				return fmt.Errorf("distshard: job %d options hash %s does not match handshake %s", m.Job.Shard, got, hello.OptHash)
			}
			if err := writeFrame(bw, runJob(reg, m.Job)); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("distshard: worker reply: %w", err)
			}
		default:
			return fmt.Errorf("distshard: worker: unexpected frame %q", m.Type)
		}
	}
}

// runJob executes one dispatched shard and packages the outcome as the
// reply frame. The spill file streams through a FileSource exactly as the
// in-process AssembleSpill path streams it, so the per-shard report — and
// therefore the coordinator's merge — is identical to the in-process run.
func runJob(reg *engine.Registry, job *Job) *Msg {
	fail := func(err error) *Msg {
		return &Msg{Type: MsgError, Error: &WireError{
			Shard:     job.Shard,
			Msg:       err.Error(),
			Transient: jobqueue.Transient(err),
		}}
	}
	eng, err := reg.Lookup(job.Engine)
	if err != nil {
		return fail(err)
	}
	src, err := genome.OpenFileSource(job.SpillPath)
	if err != nil {
		return fail(err)
	}
	defer src.Close()
	rep, err := eng.Assemble(context.Background(), src, job.Opts)
	if err != nil {
		return fail(err)
	}
	return &Msg{Type: MsgResult, Result: toWireReport(job.Shard, rep)}
}
