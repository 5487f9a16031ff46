// Package sim implements the formal model of computation from Section 3 of
// Dwork & Skeen, "Patterns of Communication in Consensus Protocols" (PODC 1984):
// a completely asynchronous message-passing system of N fail-stop processors.
//
// Processors are deterministic state machines. At each step a processor either
// receives one message (a receiving step, governed by the protocol's transition
// function δ) or sends at most one message (a sending step, governed by the
// sending function β). A third kind of step, a failure step, halts the
// processor permanently and broadcasts a detectable failure notice to every
// other processor.
//
// The message system is asynchronous, faultless, and fair: buffers are
// unordered multisets, delivery delays are arbitrary but finite, and no
// message is discriminated against forever. The only nondeterminism in the
// model is the schedule — the order in which applicable events are applied —
// which is exactly the nondeterminism the paper's communication patterns
// quantify over.
package sim

import (
	"fmt"
	"strconv"

	"repro/internal/fingerprint"
)

// ProcID identifies a processor p_i, 0 ≤ i < N.
type ProcID int

// String returns the paper's "p<i>" notation.
func (p ProcID) String() string { return "p" + strconv.Itoa(int(p)) }

// Bit is a processor's initial value (the paper's input_i register).
type Bit uint8

const (
	// Zero is the initial bit 0 (the "abort"-biased input under unanimity).
	Zero Bit = 0
	// One is the initial bit 1 (the "commit"-biased input under unanimity).
	One Bit = 1
)

// Decision is the irreversible outcome a processor may reach. Under the
// unanimity rule the paper names the two decisions "abort" (value 0) and
// "commit" (value 1).
type Decision int

const (
	// NoDecision means the processor has not (visibly) decided.
	NoDecision Decision = iota
	// Abort is the decision on value 0.
	Abort
	// Commit is the decision on value 1.
	Commit
)

// String renders the decision in the paper's vocabulary.
func (d Decision) String() string {
	switch d {
	case Abort:
		return "abort"
	case Commit:
		return "commit"
	default:
		return "undecided"
	}
}

// Value returns the binary value decided on. It panics for NoDecision, which
// has no value; callers must check first.
func (d Decision) Value() Bit {
	switch d {
	case Abort:
		return Zero
	case Commit:
		return One
	default:
		panic("sim: NoDecision has no value")
	}
}

// DecisionFor maps a binary value to its decision: 1 ⇒ commit, 0 ⇒ abort.
func DecisionFor(v Bit) Decision {
	if v == One {
		return Commit
	}
	return Abort
}

// StateKind partitions the state set Z as in the paper: Z_S (operational
// sending states), Z_R (operational receiving states), and Z_F (failed
// states). We additionally distinguish halted states — operational states in
// which the processor has completed its role and neither sends nor receives —
// because halting termination (HT) is one of the taxonomy's axes.
type StateKind int

const (
	// Receiving states accept message deliveries (δ applies); β is ∅.
	Receiving StateKind = iota + 1
	// Sending states take send steps (β applies); no messages are received.
	Sending
	// Halted states take no further steps; a halted processor may still fail.
	Halted
	// Failed is the absorbing failure state z_b.
	Failed
)

// String names the state kind.
func (k StateKind) String() string {
	switch k {
	case Receiving:
		return "receiving"
	case Sending:
		return "sending"
	case Halted:
		return "halted"
	case Failed:
		return "failed"
	default:
		return "invalid"
	}
}

// Payload is a protocol-defined message body. Payloads must be immutable
// values with a canonical Key: two payloads are the same message content if
// and only if their keys are equal. Keys feed configuration hashing, so they
// must be deterministic.
type Payload interface {
	// Key returns the canonical encoding of the payload.
	Key() string
}

// MsgID is the paper's representation of a message for the purposes of the
// communication pattern: the triple (p, q, k) meaning the k-th message sent
// from p to q. Sequence numbers start at 1 and count failure notices too, so
// triples are unique within an execution.
type MsgID struct {
	From ProcID
	To   ProcID
	Seq  int
}

// String renders the triple as "(p,q,k)". Built by hand rather than with
// fmt: message keys are computed once per sent message on the exploration
// hot path.
func (id MsgID) String() string {
	var buf [24]byte
	return string(id.appendTo(buf[:0]))
}

// appendTo appends the triple as String renders it.
func (id MsgID) appendTo(buf []byte) []byte {
	buf = append(buf, '(', 'p')
	buf = strconv.AppendInt(buf, int64(id.From), 10)
	buf = append(buf, ',', 'p')
	buf = strconv.AppendInt(buf, int64(id.To), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(id.Seq), 10)
	return append(buf, ')')
}

// msgKey is the key of the message with triple id and, after the colon,
// rest — "failed" for a notice, else the payload key — built in one
// allocation.
func msgKey(id MsgID, rest string) string {
	var buf [64]byte
	return string(append(append(id.appendTo(buf[:0]), ':'), rest...))
}

// Less orders triples lexicographically, giving patterns a canonical
// enumeration order. It is unrelated to the causal order.
func (id MsgID) Less(other MsgID) bool {
	if id.From != other.From {
		return id.From < other.From
	}
	if id.To != other.To {
		return id.To < other.To
	}
	return id.Seq < other.Seq
}

// Message is a concrete in-flight message: an identified triple plus its
// payload. Failure notices — the "failed(p)" messages broadcast by a failure
// step — carry a nil payload and Notice=true.
//
// Messages created by Apply are memoized: their canonical key and digest
// are computed once at send time and cached on the struct, so the hot
// exploration path never recomputes them. Hand-built messages (tests,
// transforms) work too — Key and Digest fall back to computing on demand.
type Message struct {
	ID      MsgID
	Payload Payload
	// Notice marks a failure notice failed(From).
	Notice bool

	key    string
	digest fingerprint.Digest
}

// Key canonically encodes the message for buffer hashing. The cached copy
// is returned when the message was memoized at send time.
func (m Message) Key() string {
	if m.key != "" {
		return m.key
	}
	return m.computeKey()
}

func (m Message) computeKey() string {
	if m.Notice {
		return msgKey(m.ID, "failed")
	}
	return msgKey(m.ID, m.Payload.Key())
}

// Digest fingerprints the message structurally: the triple, the notice
// flag, and the payload key. Equal message keys yield equal digests.
func (m Message) Digest() fingerprint.Digest {
	if !m.digest.IsZero() {
		return m.digest
	}
	return m.computeDigest()
}

func (m Message) computeDigest() fingerprint.Digest {
	if m.Notice {
		return msgDigestParts(m.ID.From, m.ID.To, m.ID.Seq, true, "")
	}
	return msgDigestParts(m.ID.From, m.ID.To, m.ID.Seq, false, m.Payload.Key())
}

// msgDigestParts fingerprints a message from its parts, without requiring a
// Payload value — the payload is represented by its canonical key. It is the
// single encoding both Message.Digest and the transition cache use, so a
// digest reconstructed from cached parts matches the one Apply memoizes.
func msgDigestParts(from, to ProcID, seq int, notice bool, payloadKey string) fingerprint.Digest {
	h := fingerprint.New()
	h.WriteUint64(uint64(from)<<32 | uint64(uint32(to)))
	h.WriteUint64(uint64(seq))
	if notice {
		h.WriteUint64(1)
	} else {
		h.WriteUint64(2)
		h.WriteString(payloadKey)
	}
	return h.Sum()
}

// Memoized returns a copy of the message with its key and digest
// precomputed and cached. Apply memoizes every message it sends.
func (m Message) Memoized() Message {
	m.key = m.computeKey()
	m.digest = m.computeDigest()
	return m
}

// String renders the message for traces.
func (m Message) String() string {
	if m.Notice {
		return fmt.Sprintf("%s failed(%s)", m.ID, m.ID.From)
	}
	return fmt.Sprintf("%s %s", m.ID, m.Payload.Key())
}

// Envelope is what a sending step emits before the simulator assigns a
// sequence number: a destination and a payload. The paper forbids a processor
// from sending to itself; Apply rejects such envelopes.
type Envelope struct {
	To      ProcID
	Payload Payload
}
