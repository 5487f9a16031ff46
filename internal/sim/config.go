package sim

import (
	"strings"

	"repro/internal/fingerprint"
)

// Buffer is a processor's unordered message buffer: the multiset of messages
// sent to it but not yet received. It is kept sorted by message key so that
// configuration hashing is canonical; sortedness is an encoding detail, not
// an ordering guarantee (delivery picks any element).
//
// Buffers are persistent: Add and Remove return a fresh exactly-sized
// buffer and never mutate the receiver, so configurations can share buffer
// slices freely (Clone copies only headers). The *Into variants accept a
// caller-owned destination and reuse its capacity, for call sites that can
// recycle scratch.
type Buffer []Message

// search returns the insertion slot for key: the first index whose message
// key is not below it. Buffers are sorted by key, so this is a binary
// search.
func (b Buffer) search(key string) int {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].Key() < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts a message, preserving canonical order, and returns the new
// buffer. The receiver is not mutated; callers must use the return value.
func (b Buffer) Add(m Message) Buffer {
	return b.addInto(make(Buffer, len(b)+1), m)
}

// AddInto is Add writing into dst, reusing dst's capacity when it
// suffices. The returned buffer aliases dst; the receiver is not mutated.
func (b Buffer) AddInto(dst Buffer, m Message) Buffer {
	if cap(dst) < len(b)+1 {
		dst = make(Buffer, len(b)+1)
	} else {
		dst = dst[:len(b)+1]
	}
	return b.addInto(dst, m)
}

func (b Buffer) addInto(out Buffer, m Message) Buffer {
	i := b.search(m.Key())
	copy(out, b[:i])
	out[i] = m
	copy(out[i+1:], b[i:])
	return out
}

// Remove deletes one occurrence of the message with the given ID and returns
// the new buffer plus whether it was present. Removal by bare ID cannot
// binary-search (buffers sort by full key, and ID order is not key-prefix
// order), so this is a single linear pass; use RemoveMsg when the full
// message is at hand.
func (b Buffer) Remove(id MsgID) (Buffer, bool) {
	for i := range b {
		if b[i].ID == id {
			return b.removeAt(i, make(Buffer, len(b)-1)), true
		}
	}
	return b, false
}

// RemoveMsg deletes one occurrence of message m, located by binary search
// on its key, and returns the new buffer plus whether it was present.
func (b Buffer) RemoveMsg(m Message) (Buffer, bool) {
	i := b.search(m.Key())
	if i >= len(b) || b[i].ID != m.ID {
		return b, false
	}
	return b.removeAt(i, make(Buffer, len(b)-1)), true
}

// RemoveMsgInto is RemoveMsg writing into dst, reusing dst's capacity when
// it suffices. The returned buffer aliases dst; the receiver is not
// mutated.
func (b Buffer) RemoveMsgInto(dst Buffer, m Message) (Buffer, bool) {
	i := b.search(m.Key())
	if i >= len(b) || b[i].ID != m.ID {
		return b, false
	}
	if cap(dst) < len(b)-1 {
		dst = make(Buffer, len(b)-1)
	} else {
		dst = dst[:len(b)-1]
	}
	return b.removeAt(i, dst), true
}

func (b Buffer) removeAt(i int, out Buffer) Buffer {
	copy(out, b[:i])
	copy(out[i:], b[i+1:])
	return out
}

// Find returns the buffered message with the given ID.
func (b Buffer) Find(id MsgID) (Message, bool) {
	if m := b.lookup(id); m != nil {
		return *m, true
	}
	return Message{}, false
}

// lookup is Find returning the buffered message in place, or nil.
func (b Buffer) lookup(id MsgID) *Message {
	for i := range b {
		if b[i].ID == id {
			return &b[i]
		}
	}
	return nil
}

// Key canonically encodes the buffer contents.
func (b Buffer) Key() string {
	if len(b) == 0 {
		return "∅"
	}
	parts := make([]string, len(b))
	for i, m := range b {
		parts[i] = m.Key()
	}
	return strings.Join(parts, "|")
}

// Digest fingerprints the buffer as an unsalted multiset sum of its
// messages' digests. Callers mix the result (or the per-message terms)
// under a buffer-position salt before folding it into a configuration
// fingerprint.
func (b Buffer) Digest() fingerprint.Digest {
	var d fingerprint.Digest
	for i := range b {
		d = d.Add(b[i].Digest())
	}
	return d
}

// Config is a configuration as defined in Section 3: the N local states and
// the N buffer contents. Inputs records the initial bits (they determine the
// initial configuration and are consulted by decision-rule validators), and
// seq tracks the next sequence number on each directed channel so that
// message triples (p,q,k) are assigned deterministically.
type Config struct {
	States  []State
	Buffers []Buffer
	Inputs  []Bit
	seq     []int // seq[from*n+to] = messages sent from→to so far

	// Omission-fault accounting, live only when pol.Enabled(). omitsUsed
	// counts Omit events on the path to this configuration; omitFaulty is
	// the bitmask of currently omission-faulty processors (mobile model);
	// omitTargets is the bitmask of processors ever targeted. All three
	// fold into Key and Fingerprint when the policy is enabled — two
	// configurations with equal states and buffers but different remaining
	// budgets or faulty sets have different futures and must not
	// deduplicate — and contribute nothing when it is disabled, so
	// pre-omission hashes are unchanged.
	pol         OmissionPolicy
	omitsUsed   int
	omitFaulty  uint64
	omitTargets uint64

	// Incremental fingerprint cache. Once Fingerprint is first called on a
	// configuration, fp and each processor's stateMemo are maintained across
	// Apply, so successors derive their fingerprint from the parent's by
	// updating only the changed contributions, and KindAt and DecidedAt read
	// the memo instead of calling the state. fpOK false means the cache is
	// cold and fingerprints are recomputed on demand; execution paths that
	// never ask for fingerprints (random runs, chaos replay) pay nothing.
	fp     fingerprint.Digest
	stateM []stateMemo
	fpOK   bool
}

// stateMemo is what the fingerprint cache keeps of one processor's local
// state: its unmixed digest, its kind and its visible decision. Library
// states are value receivers of a few hundred bytes, so every call through
// State copies one; the hot loops read these instead. Kind and decision are
// a byte each, so a memo is 24 bytes: every queued configuration holds N.
type stateMemo struct {
	d       fingerprint.Digest
	kind    uint8
	dec     int8
	decided bool
}

// memoOf is the stateMemo of a state with digest d, kind k and visible
// decision (dec, decided).
func memoOf(d fingerprint.Digest, k StateKind, dec Decision, decided bool) stateMemo {
	return stateMemo{d: d, kind: uint8(k), dec: int8(dec), decided: decided}
}

// NewConfig builds the initial configuration of a protocol on the given
// inputs: each processor starts in Init(p, inputs[p]) — the paper's z_0 or
// z_1 states — and every buffer is empty.
func NewConfig(proto Protocol, inputs []Bit) *Config {
	n := len(inputs)
	c := &Config{
		States:  make([]State, n),
		Buffers: make([]Buffer, n),
		Inputs:  append([]Bit(nil), inputs...),
		seq:     make([]int, n*n),
	}
	for p := range c.States {
		c.States[p] = proto.Init(ProcID(p), inputs[p], n)
	}
	return c
}

// NewConfigOmission is NewConfig with an omission-fault policy attached:
// the configuration enumerates Omit events (within budget) and folds its
// omission accounting into Key and Fingerprint. A zero policy is exactly
// NewConfig. Panics if the policy is enabled with more than 64 processors
// (the faulty and target sets are single-word bitmasks).
func NewConfigOmission(proto Protocol, inputs []Bit, pol OmissionPolicy) *Config {
	if pol.Enabled() && len(inputs) > maxOmissionProcs {
		panic("sim: omission policies support at most 64 processors")
	}
	c := NewConfig(proto, inputs)
	c.pol = pol
	return c
}

// N returns the number of processors.
func (c *Config) N() int { return len(c.States) }

// Clone returns an independent copy of the configuration. States and
// messages are immutable values, so only the containers are copied; the
// Inputs vector never changes after NewConfig and is shared outright.
func (c *Config) Clone() *Config {
	out := &Config{}
	out.CopyFrom(c)
	return out
}

// CopyFrom makes c the independent copy of src that Clone would return,
// reusing c's containers: the scratch configuration of a caller that
// replays many schedules from one starting point, or of a walk that recycles
// the configurations it has stepped.
func (c *Config) CopyFrom(src *Config) {
	states, buffers, seq, stateM := c.States, c.Buffers, c.seq, c.stateM
	*c = *src
	c.States = append(states[:0], src.States...)
	c.Buffers = append(buffers[:0], src.Buffers...) // buffers are persistent; Add/Remove copy
	c.seq = append(seq[:0], src.seq...)
	c.stateM = stateM[:0]
	if src.fpOK {
		c.stateM = append(c.stateM, src.stateM...)
	}
}

// WithoutDeadBuffers returns a derived configuration whose dead letters are
// erased: the buffers of failed and halted processors become empty. Such
// processors are never again in a receiving state (Halted takes no further
// steps and may only fail; Failed is absorbing), so their buffered messages
// can never be delivered and no event reads them — they are inert. The
// erased view is a sound dedup handle: two configurations that differ only
// in dead letters are bisimilar, and because a channel toward a dead
// processor never carries a deliverable message again, the sequence-counter
// drift the erased history hides can never resurface in a live buffer.
//
// The second result reports whether anything was erased; when nothing was,
// the receiver itself is returned unchanged and unaliased state is not
// allocated. The derived configuration shares the receiver's states,
// inputs, and live buffers, carries no fingerprint cache, and must be used
// only for Key/Fingerprint computation, never stepped.
func (c *Config) WithoutDeadBuffers() (*Config, bool) {
	erase := false
	for p := range c.States {
		if len(c.Buffers[p]) > 0 && c.deadLetterBox(ProcID(p)) {
			erase = true
			break
		}
	}
	if !erase {
		return c, false
	}
	out := &Config{
		States:      c.States,
		Buffers:     make([]Buffer, len(c.Buffers)),
		Inputs:      c.Inputs,
		pol:         c.pol,
		omitsUsed:   c.omitsUsed,
		omitFaulty:  c.omitFaulty,
		omitTargets: c.omitTargets,
	}
	for p := range c.States {
		if !c.deadLetterBox(ProcID(p)) {
			out.Buffers[p] = c.Buffers[p]
		}
	}
	return out, true
}

// deadLetterBox reports whether processor p can never receive again, which
// makes everything in its buffer a dead letter.
func (c *Config) deadLetterBox(p ProcID) bool { return deadKind(c.KindAt(p)) }

// deadKind reports whether a processor in a state of kind k can never
// receive again.
func deadKind(k StateKind) bool { return k == Failed || k == Halted }

// ElidedFingerprint returns what WithoutDeadBuffers reports — the erased
// view's Fingerprint and whether anything was erased — without building
// the view: the warm fingerprint minus the dead letters' buffer terms.
func (c *Config) ElidedFingerprint() (fingerprint.Digest, bool) {
	fp, changed := c.Fingerprint(), false
	for p := range c.States {
		if buf := c.Buffers[p]; len(buf) > 0 && c.deadLetterBox(ProcID(p)) {
			changed = true
			for i := range buf {
				fp = fp.Sub(buf[i].Digest().Mixed(saltBufferBase + uint64(p)))
			}
		}
	}
	return fp, changed
}

// nextSeq allocates the next sequence number from→to.
func (c *Config) nextSeq(from, to ProcID) int {
	i := int(from)*c.N() + int(to)
	c.seq[i]++
	return c.seq[i]
}

// peekSeq is the sequence number nextSeq would allocate from→to.
func (c *Config) peekSeq(from, to ProcID) int {
	return c.seq[int(from)*c.N()+int(to)] + 1
}

// Fingerprint returns the configuration's 128-bit fingerprint: the salted
// sum of the inputs digest, each processor's state digest, and each
// buffered message's digest. It covers exactly what Key covers — states,
// buffer multisets, inputs — and, like Key, excludes channel sequence
// counters, so fingerprint equality tracks key equality. The first call
// warms the incremental cache; Apply keeps it warm on successors.
func (c *Config) Fingerprint() fingerprint.Digest {
	if !c.fpOK {
		c.initFingerprint()
	}
	return c.fp
}

func (c *Config) initFingerprint() {
	n := c.N()
	c.stateM = c.stateM[:0]
	fp := inputsDigest(c.Inputs).Mixed(saltInputs)
	if c.pol.Enabled() {
		fp = fp.Add(c.omissionTerm())
	}
	for p := 0; p < n; p++ {
		s := c.States[p]
		d := StateDigest(s)
		dec, decided := s.Decided()
		c.stateM = append(c.stateM, memoOf(d, s.Kind(), dec, decided))
		fp = fp.Add(d.Mixed(saltStateBase + uint64(p)))
		buf := c.Buffers[p]
		for i := range buf {
			fp = fp.Add(buf[i].Digest().Mixed(saltBufferBase + uint64(p)))
		}
	}
	c.fp = fp
	c.fpOK = true
}

// StateDigestAt returns the digest of processor p's local state from the
// fingerprint cache, warming the cache if needed. It lets callers key
// per-state lookaside tables without rebuilding state Key strings.
func (c *Config) StateDigestAt(p int) fingerprint.Digest {
	if !c.fpOK {
		c.initFingerprint()
	}
	return c.stateM[p].d
}

// KindAt is c.States[p].Kind(), read from the fingerprint cache when it is
// warm.
func (c *Config) KindAt(p ProcID) StateKind {
	if c.fpOK {
		return StateKind(c.stateM[p].kind)
	}
	return c.States[p].Kind()
}

// DecidedAt is c.States[p].Decided(), read from the fingerprint cache when it
// is warm.
func (c *Config) DecidedAt(p ProcID) (Decision, bool) {
	if c.fpOK {
		return Decision(c.stateM[p].dec), c.stateM[p].decided
	}
	return c.States[p].Decided()
}

// setState replaces p's local state by st's post-state, updating the
// fingerprint cache by swapping p's state contribution. A cold cache needs
// nothing; a warm one takes the post-state's digest, kind and decision from
// st, filling them once if the transition cache has not.
func (c *Config) setState(p ProcID, st *step) {
	if c.fpOK {
		st.fill()
		salt := saltStateBase + uint64(p)
		c.fp = c.fp.Sub(c.stateM[p].d.Mixed(salt)).Add(st.postD.Mixed(salt))
		c.stateM[p] = memoOf(st.postD, st.kind, st.dec, st.decided)
	}
	c.States[p] = st.post
}

// addMessage buffers m at its destination, adding its contribution to the
// fingerprint cache. m should be memoized.
func (c *Config) addMessage(to ProcID, m Message) {
	c.Buffers[to] = c.Buffers[to].Add(m)
	if c.fpOK {
		c.fp = c.fp.Add(m.Digest().Mixed(saltBufferBase + uint64(to)))
	}
}

// removeMessage consumes m from p's buffer, subtracting its contribution
// from the fingerprint cache.
func (c *Config) removeMessage(p ProcID, m Message) bool {
	b, ok := c.Buffers[p].RemoveMsg(m)
	if !ok {
		return false
	}
	c.Buffers[p] = b
	if c.fpOK {
		c.fp = c.fp.Sub(m.Digest().Mixed(saltBufferBase + uint64(p)))
	}
	return true
}

// Key canonically encodes the configuration for state-space hashing. Two
// configurations with equal keys are the same configuration (same local
// states, same buffer multisets, same inputs, same channel histories).
func (c *Config) Key() string {
	var sb strings.Builder
	for p, s := range c.States {
		if p > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(s.Key())
	}
	sb.WriteByte('#')
	for p, b := range c.Buffers {
		if p > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(b.Key())
	}
	sb.WriteByte('#')
	var vec [64]byte // on the stack for every N the omission masks allow
	sb.Write(appendInputs(vec[:0], c.Inputs))
	sb.Write(c.omissionKeySuffix(nil))
	return sb.String()
}

// StateKey encodes only the local-state vector — the projection
// state(P, C) used by Lemma 3 when comparing configurations.
func (c *Config) StateKey() string {
	parts := make([]string, len(c.States))
	for p, s := range c.States {
		parts[p] = s.Key()
	}
	return strings.Join(parts, ";")
}

// Faulty reports whether processor p occupies a failed state.
func (c *Config) Faulty(p ProcID) bool { return c.KindAt(p) == Failed }

// Operational lists the processors in operational (sending or receiving)
// states.
func (c *Config) Operational() []ProcID {
	var out []ProcID
	for p, s := range c.States {
		if IsOperational(s) {
			out = append(out, ProcID(p))
		}
	}
	return out
}

// Decisions returns the visible decision of each processor (NoDecision for
// undecided, amnesic, and failed states).
func (c *Config) Decisions() []Decision {
	out := make([]Decision, len(c.States))
	for p, s := range c.States {
		if d, ok := s.Decided(); ok {
			out[p] = d
		}
	}
	return out
}

// Quiescent reports whether no applicable non-failure event can change the
// configuration: no processor is in a sending state and every operational
// receiving processor has an empty buffer. Weakly terminating protocols
// "terminate, in essence, by deadlocking" (Section 2) in exactly this sense.
func (c *Config) Quiescent() bool {
	for p := range c.States {
		switch c.KindAt(ProcID(p)) {
		case Sending:
			return false
		case Receiving:
			if len(c.Buffers[p]) > 0 {
				return false
			}
		}
	}
	return true
}
