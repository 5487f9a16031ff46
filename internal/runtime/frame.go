// Package runtime is a live execution engine for the Dwork & Skeen model:
// it runs any sim.Protocol as one goroutine per processor over an
// unreliable, fault-injected transport, emulates the paper's reliable fair
// buffers with per-link at-least-once delivery plus receiver-side dedup,
// detects injected fail-stop crashes with heartbeat timeouts, and records a
// total-order event trace that is replayed through the deterministic
// simulator to prove every live execution is a legal run of the model.
//
// The simulator answers "what can the model do"; this package answers "does
// a genuinely concurrent implementation stay inside the model". The bridge
// is the conformance check: a live run whose trace does not replay — a
// duplicated delivery, a lost message the transport swallowed, a decision
// the model would not reach — fails with a replayable artifact in the
// internal/chaos trace format.
package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Wire frame layout (all integers big-endian, fixed width so the encoding
// is canonical by construction — for every valid byte string there is
// exactly one frame, and Decode∘Encode is the identity):
//
//	offset  size  field
//	0       1     magic (0xCC)
//	1       1     version (1)
//	2       4     from (uint32)
//	6       4     to (uint32)
//	10      8     seq (uint64, ≤ MaxInt64)
//	18      1     flags (bit 0: failure notice; others must be zero)
//	19      4     payload-key length (uint32; 0 for notices)
//	23      …     payload key bytes
const (
	frameMagic   = 0xCC
	frameVersion = 1

	frameHeaderLen = 23
	// frameIDLen is the prefix that determines the dedup key: magic,
	// version, from, to, seq.
	frameIDLen = 18
)

// Frame is the decoded wire representation of one message bound for another
// host: the model's triple (from, to, seq), the failure-notice flag, and the
// payload's canonical key. Only such messages are framed — transport.Send
// encodes one frame per remote message, and a message to a processor on
// the same host stays a sim.Message — and Group.DeliverWire is the one
// decoder. Payload *objects* never cross the wire: Decode returns the key,
// and the receiving group rebuilds the payload with its
// GroupConfig.DecodePayload.
type Frame struct {
	From   sim.ProcID
	To     sim.ProcID
	Seq    int
	Notice bool
	// PayloadKey is the payload's canonical Key(); empty for notices.
	PayloadKey string
}

// ID returns the message triple the frame carries.
func (f Frame) ID() sim.MsgID {
	return sim.MsgID{From: f.From, To: f.To, Seq: f.Seq}
}

// Errors returned by EncodeFrame, DecodeFrame, and DedupKey.
var (
	// ErrFrameRange reports a frame whose fields do not fit the wire
	// encoding (negative or oversized processor IDs or sequence numbers,
	// or a notice carrying a payload).
	ErrFrameRange = errors.New("runtime: frame field out of encodable range")
	// ErrFrameCorrupt reports bytes that are not a canonical frame.
	ErrFrameCorrupt = errors.New("runtime: corrupt frame")
)

// EncodeFrame serializes the frame canonically.
//
//ccvet:pure
func EncodeFrame(f Frame) ([]byte, error) {
	if f.From < 0 || int64(f.From) > math.MaxUint32 || f.To < 0 || int64(f.To) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: processor id (from=%d, to=%d)", ErrFrameRange, f.From, f.To)
	}
	if f.Seq < 0 {
		return nil, fmt.Errorf("%w: seq %d", ErrFrameRange, f.Seq)
	}
	if f.Notice && f.PayloadKey != "" {
		return nil, fmt.Errorf("%w: failure notice with payload key %q", ErrFrameRange, f.PayloadKey)
	}
	if len(f.PayloadKey) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: payload key of %d bytes", ErrFrameRange, len(f.PayloadKey))
	}
	buf := make([]byte, frameHeaderLen+len(f.PayloadKey))
	buf[0] = frameMagic
	buf[1] = frameVersion
	binary.BigEndian.PutUint32(buf[2:], uint32(f.From))
	binary.BigEndian.PutUint32(buf[6:], uint32(f.To))
	binary.BigEndian.PutUint64(buf[10:], uint64(f.Seq))
	if f.Notice {
		buf[18] = 1
	}
	binary.BigEndian.PutUint32(buf[19:], uint32(len(f.PayloadKey)))
	copy(buf[frameHeaderLen:], f.PayloadKey)
	return buf, nil
}

// EncodeMessage serializes a sim.Message's wire frame.
//
//ccvet:pure
func EncodeMessage(m sim.Message) ([]byte, error) {
	f := Frame{From: m.ID.From, To: m.ID.To, Seq: m.ID.Seq, Notice: m.Notice}
	if !m.Notice {
		f.PayloadKey = m.Payload.Key()
	}
	return EncodeFrame(f)
}

// DecodeFrame parses a canonical frame. Exactly the byte strings produced
// by EncodeFrame decode successfully: a successful decode re-encodes to the
// identical bytes, and DedupKey of the same bytes equals the decoded
// frame's ID (the round-trip contract FuzzFrameRoundTrip enforces).
//
//ccvet:pure
func DecodeFrame(data []byte) (Frame, error) {
	if len(data) < frameHeaderLen {
		return Frame{}, fmt.Errorf("%w: %d bytes, want at least %d", ErrFrameCorrupt, len(data), frameHeaderLen)
	}
	if data[0] != frameMagic {
		return Frame{}, fmt.Errorf("%w: magic %#x", ErrFrameCorrupt, data[0])
	}
	if data[1] != frameVersion {
		return Frame{}, fmt.Errorf("%w: version %d, want %d", ErrFrameCorrupt, data[1], frameVersion)
	}
	seq := binary.BigEndian.Uint64(data[10:])
	if seq > math.MaxInt64 {
		return Frame{}, fmt.Errorf("%w: seq %d overflows", ErrFrameCorrupt, seq)
	}
	flags := data[18]
	if flags&^1 != 0 {
		return Frame{}, fmt.Errorf("%w: flags %#x", ErrFrameCorrupt, flags)
	}
	keyLen := binary.BigEndian.Uint32(data[19:])
	if uint64(len(data)-frameHeaderLen) != uint64(keyLen) {
		return Frame{}, fmt.Errorf("%w: payload key length %d, have %d bytes", ErrFrameCorrupt, keyLen, len(data)-frameHeaderLen)
	}
	f := Frame{
		From:       sim.ProcID(binary.BigEndian.Uint32(data[2:])),
		To:         sim.ProcID(binary.BigEndian.Uint32(data[6:])),
		Seq:        int(seq),
		Notice:     flags&1 != 0,
		PayloadKey: string(data[frameHeaderLen:]),
	}
	if f.Notice && f.PayloadKey != "" {
		return Frame{}, fmt.Errorf("%w: failure notice with payload", ErrFrameCorrupt)
	}
	return f, nil
}

// DedupKey extracts the message triple from a frame's fixed prefix without
// decoding the payload. The runtime does not call it — a mailbox dedups on
// the sim.Message's ID — and FuzzFrameRoundTrip holds it to DecodeFrame.
//
// Deprecated: pinned by bench/probes.go (runtime.dedupkey_ns).
//
//ccvet:pure
func DedupKey(data []byte) (sim.MsgID, error) {
	if len(data) < frameIDLen {
		return sim.MsgID{}, fmt.Errorf("%w: %d bytes, want at least %d", ErrFrameCorrupt, len(data), frameIDLen)
	}
	if data[0] != frameMagic || data[1] != frameVersion {
		return sim.MsgID{}, fmt.Errorf("%w: bad magic/version", ErrFrameCorrupt)
	}
	seq := binary.BigEndian.Uint64(data[10:])
	if seq > math.MaxInt64 {
		return sim.MsgID{}, fmt.Errorf("%w: seq %d overflows", ErrFrameCorrupt, seq)
	}
	return sim.MsgID{
		From: sim.ProcID(binary.BigEndian.Uint32(data[2:])),
		To:   sim.ProcID(binary.BigEndian.Uint32(data[6:])),
		Seq:  int(seq),
	}, nil
}
