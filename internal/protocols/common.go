// Package protocols implements the consensus protocols of Dwork & Skeen
// (1984): the Figure 1 tree WT-TC protocol, the Figure 2 centralized HT-IC
// protocol, the Figure 3 chain WT-IC protocol, the Figure 4 "perverse"
// WT-TC protocol, and the Appendix termination protocol — plus the practical
// substrates the introduction motivates: two-phase and three-phase commit
// and reliable broadcast under fail-stop failures.
//
// Every protocol follows the model of package sim: states are immutable
// values with canonical keys, transitions are pure, and a sending step emits
// at most one message (broadcasts compile to chains of sending states).
package protocols

import (
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// procSet is a set of processors as a two-word bitmask; N ≤ 128. The live
// runtime soaks protocols at N=100+, so the former uint32 mask (N ≤ 31) was
// widened; for sets that fit the old mask the canonical key is unchanged,
// keeping every committed state key and golden trace stable.
type procSet struct{ lo, hi uint64 }

const maxProcSet = 128

func bit(p sim.ProcID) procSet {
	if p < 0 || int(p) >= maxProcSet {
		panic("protocols: processor id " + strconv.Itoa(int(p)) + " outside procSet range [0,128)")
	}
	if p < 64 {
		return procSet{lo: 1 << uint(p)}
	}
	return procSet{hi: 1 << uint(p-64)}
}

// allProcs returns the full set {p_0 … p_{n-1}}.
func allProcs(n int) procSet {
	if n < 0 || n > maxProcSet {
		panic("protocols: N=" + strconv.Itoa(n) + " outside procSet range [0,128]")
	}
	switch {
	case n >= maxProcSet:
		return procSet{lo: ^uint64(0), hi: ^uint64(0)}
	case n >= 64:
		return procSet{lo: ^uint64(0), hi: 1<<uint(n-64) - 1}
	default:
		return procSet{lo: 1<<uint(n) - 1}
	}
}

func (s procSet) has(p sim.ProcID) bool {
	b := bit(p)
	return s.lo&b.lo|s.hi&b.hi != 0
}

func (s procSet) add(p sim.ProcID) procSet {
	b := bit(p)
	return procSet{lo: s.lo | b.lo, hi: s.hi | b.hi}
}

func (s procSet) del(p sim.ProcID) procSet {
	b := bit(p)
	return procSet{lo: s.lo &^ b.lo, hi: s.hi &^ b.hi}
}

func (s procSet) count() int {
	return bits.OnesCount64(s.lo) + bits.OnesCount64(s.hi)
}

func (s procSet) empty() bool { return s.lo|s.hi == 0 }

// contains reports whether s ⊇ t.
func (s procSet) contains(t procSet) bool {
	return s.lo&t.lo == t.lo && s.hi&t.hi == t.hi
}

// minus returns s ∖ t.
func (s procSet) minus(t procSet) procSet {
	return procSet{lo: s.lo &^ t.lo, hi: s.hi &^ t.hi}
}

// lowest returns the smallest member; callers must ensure non-emptiness.
func (s procSet) lowest() sim.ProcID {
	if s.lo != 0 {
		return sim.ProcID(bits.TrailingZeros64(s.lo))
	}
	return sim.ProcID(64 + bits.TrailingZeros64(s.hi))
}

// members lists the set in ascending order.
func (s procSet) members() []sim.ProcID {
	out := make([]sim.ProcID, 0, s.count())
	for rest := s.lo; rest != 0; rest &= rest - 1 {
		out = append(out, sim.ProcID(bits.TrailingZeros64(rest)))
	}
	for rest := s.hi; rest != 0; rest &= rest - 1 {
		out = append(out, sim.ProcID(64+bits.TrailingZeros64(rest)))
	}
	return out
}

// appendKey appends the set's canonical key to buf: the low word in bare
// hex, or the high word, a dot and the low word as sixteen hex digits. Sets
// with no member ≥ 64 render exactly as the old 32-bit mask did, so state
// keys for every N ≤ 31 configuration are byte-identical to the
// pre-widening ones.
func (s procSet) appendKey(buf []byte) []byte {
	if s.hi == 0 {
		return strconv.AppendUint(buf, s.lo, 16)
	}
	buf = strconv.AppendUint(buf, s.hi, 16)
	buf = append(buf, '.')
	for shift := 60; shift >= 0; shift -= 4 {
		buf = append(buf, "0123456789abcdef"[s.lo>>uint(shift)&0xf])
	}
	return buf
}

// ---- Message payloads shared across the protocol library ----

// valMsg carries an input value (or an aggregated conjunction of input
// values) toward the root or coordinator.
type valMsg struct{ V sim.Bit }

func (m valMsg) Key() string { return "val" + strconv.Itoa(int(m.V)) }

// biasMsg carries the root's bias down the tree: committable or
// noncommittable.
type biasMsg struct{ Committable bool }

func (m biasMsg) Key() string {
	if m.Committable {
		return "bias:c"
	}
	return "bias:n"
}

// ackMsg acknowledges a committable bias (Figure 1, Phase 2).
type ackMsg struct{}

func (ackMsg) Key() string { return "ack" }

// decisionMsg carries a decision.
type decisionMsg struct{ D sim.Decision }

func (m decisionMsg) Key() string { return "dec:" + m.D.String() }

// termMsg is one round message of the Appendix termination protocol:
// (round, bias).
type termMsg struct {
	Round       int
	Committable bool
}

func (m termMsg) Key() string {
	c := "n"
	if m.Committable {
		c = "c"
	}
	return "term" + strconv.Itoa(m.Round) + ":" + c
}

// amnesicMsg announces that the sender has become amnesic (the modified
// termination protocol of Corollary 11's ST variants).
type amnesicMsg struct{}

func (amnesicMsg) Key() string { return "amnesic" }

// ---- The Appendix termination protocol as an embeddable core ----

// earlyMsg is a round message received ahead of the local round.
type earlyMsg struct {
	Round       int
	From        sim.ProcID
	Committable bool
}

// termCore is the state of one processor executing the Appendix termination
// protocol:
//
//	for round := 1 to N do
//	    broadcast(UP−{p}, (round, bias));
//	    Msgs := receive_all(UP−{p}) — this round's messages only;
//	    UP := UP − {q | failed(q) received};
//	    if "committable" received then bias := committable;
//	od;
//	decide commit iff bias = committable
//
// termCore values are immutable: every mutator returns a fresh value.
type termCore struct {
	self  sim.ProcID
	n     int
	round int
	bias  bool // committable?
	up    procSet
	got   procSet // round messages received for the current round
	out   procSet // broadcast targets not yet sent this round
	early []earlyMsg
	done  bool
}

// newTermCore enters the termination protocol with the given bias and UP
// set (which must contain self). Rounds with nobody to wait for cascade
// immediately.
func newTermCore(self sim.ProcID, n int, bias bool, up procSet) termCore {
	c := termCore{self: self, n: n, round: 1, bias: bias, up: up, out: up.del(self)}
	return c.advance()
}

func (c termCore) key() string {
	var scratch [96]byte
	return string(c.appendKey(scratch[:0]))
}

// appendKey appends the core's key to buf: "r<round> b<bias> up<set>
// got<set> out<set>", " done" once done, and " e(<round>,<from>,<bias>)"
// per early message.
func (c termCore) appendKey(buf []byte) []byte {
	buf = append(buf, 'r')
	buf = strconv.AppendInt(buf, int64(c.round), 10)
	buf = append(buf, " b"...)
	buf = strconv.AppendBool(buf, c.bias)
	buf = c.up.appendKey(append(buf, " up"...))
	buf = c.got.appendKey(append(buf, " got"...))
	buf = c.out.appendKey(append(buf, " out"...))
	if c.done {
		buf = append(buf, " done"...)
	}
	for _, e := range c.early {
		buf = append(buf, " e("...)
		buf = strconv.AppendInt(buf, int64(e.Round), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.From), 10)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, e.Committable)
		buf = append(buf, ')')
	}
	return buf
}

// appendHeader appends the key prefix every library state opens with:
// "<name>{p<self> n<n> in<input> <phase>".
func appendHeader(buf []byte, name string, self sim.ProcID, n int, input sim.Bit, phase string) []byte {
	buf = append(buf, name...)
	buf = append(buf, "{p"...)
	buf = strconv.AppendInt(buf, int64(self), 10)
	buf = append(buf, " n"...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, " in"...)
	buf = strconv.AppendInt(buf, int64(input), 10)
	buf = append(buf, ' ')
	return append(buf, phase...)
}

// appendOuts appends one " →p<to>:<payload key>" per pending send.
func appendOuts(buf []byte, out []outItem) []byte {
	for _, o := range out {
		buf = append(buf, " →p"...)
		buf = strconv.AppendInt(buf, int64(o.to), 10)
		buf = append(buf, ':')
		buf = append(buf, o.payload.Key()...)
	}
	return buf
}

// sending reports whether the core still has broadcast targets this round.
func (c termCore) sending() bool { return !c.done && !c.out.empty() }

// waitSet is the set of processors whose current-round message is awaited.
func (c termCore) waitSet() procSet { return c.up.del(c.self) }

// advance moves through rounds as far as the received messages allow. It
// never advances while a broadcast is in progress (the round's receive_all
// follows its broadcast).
func (c termCore) advance() termCore {
	for !c.done && c.out.empty() && c.got.contains(c.waitSet()) {
		c.round++
		if c.round > c.n {
			c.done = true
			return c
		}
		c.got = procSet{}
		c.out = c.waitSet()
		c = c.consumeEarly()
	}
	return c
}

// consumeEarly applies buffered messages matching the current round.
func (c termCore) consumeEarly() termCore {
	if len(c.early) == 0 {
		return c
	}
	var rest []earlyMsg
	for _, e := range c.early {
		if e.Round == c.round {
			if c.up.has(e.From) {
				c.got = c.got.add(e.From)
				if e.Committable {
					c.bias = true
				}
			}
			continue
		}
		rest = append(rest, e)
	}
	c.early = rest
	return c
}

// sendStep pops the next broadcast target, returning the new core and the
// envelope. After the last target the core may advance through rounds that
// need no further input.
func (c termCore) sendStep() (termCore, sim.Envelope) {
	to := c.out.lowest()
	c.out = c.out.del(to)
	env := sim.Envelope{To: to, Payload: termMsg{Round: c.round, Committable: c.bias}}
	if c.out.empty() {
		c = c.advance()
	}
	return c, env
}

// onTermMsg processes a round message from q. Messages from earlier rounds
// are ignored entirely — the Appendix's receive_all accepts "messages from
// this round only". Adopting a stale committable bias would be unsound: the
// adopter may already have sent its final (round N) message as
// noncommittable, so another survivor can complete its rounds and abort
// while the adopter commits.
func (c termCore) onTermMsg(q sim.ProcID, m termMsg) termCore {
	if c.done || !c.up.has(q) || m.Round < c.round {
		return c
	}
	if m.Round > c.round {
		c.early = appendEarly(c.early, earlyMsg{Round: m.Round, From: q, Committable: m.Committable})
		return c
	}
	c.got = c.got.add(q)
	if m.Committable {
		c.bias = true
	}
	return c.advance()
}

// onRemoved deletes q from UP (failure notice or amnesic announcement) and
// re-evaluates the round.
func (c termCore) onRemoved(q sim.ProcID) termCore {
	if c.done || !c.up.has(q) {
		return c
	}
	c.up = c.up.del(q)
	c.out = c.out.del(q)
	return c.advance()
}

// onEvidence adopts the committable bias from out-of-band evidence (a late
// main-protocol message, or Figure 2's classified decision message).
//
// Evidence is adopted only while the processor can still spread it through a
// later round broadcast — strictly before its round-N broadcast completes.
// Adopted at round k < N, the flip rides the round k+1 messages and reaches
// every survivor, preserving the Appendix's agreement argument; adopted
// after the final send it would flip this processor silently, letting
// another survivor finish its rounds all-noncommittable and abort. Ignoring
// late evidence is always consistent: evidence can arrive that late only
// when its originator has failed (a nonfaulty decided processor blocks every
// participant's round 1 until its decision is classified), so no operational
// processor is contradicted.
func (c termCore) onEvidence() termCore {
	if c.done || (c.round == c.n && c.out.empty()) {
		return c
	}
	c.bias = true
	return c
}

// ---- The failure path every library protocol shares ----

// fallback is a processor's failure path: the processors it knows to have
// failed (or, in the ST variants, to be amnesic), and the Appendix
// termination protocol it runs once evidence of a failure arrives. Every
// library state embeds one. The protocol decides only when to enter, with
// which bias, which of its own fields that clears, and whether a decision
// taken here halts it. Like termCore, a fallback is a value: every method
// returns a fresh one.
type fallback struct {
	removed procSet // processors known failed or amnesic
	term    termCore
}

// isTermPayload reports whether the payload belongs to the termination
// protocol layer.
func isTermPayload(p sim.Payload) bool {
	switch p.(type) {
	case termMsg, amnesicMsg:
		return true
	default:
		return false
	}
}

// enter starts the termination protocol with the given bias; UP is every
// processor not known to be gone.
func (f fallback) enter(self sim.ProcID, n int, bias bool) fallback {
	f.term = newTermCore(self, n, bias, allProcs(n).minus(f.removed))
	return f
}

// absorb applies a failure notice, a round message or an amnesia
// announcement to an entered fallback; any other message leaves it as it
// was. A failed or amnesic sender leaves UP.
func (f fallback) absorb(m sim.Message) fallback {
	if !m.Notice {
		switch pl := m.Payload.(type) {
		case termMsg:
			f.term = f.term.onTermMsg(m.ID.From, pl)
			return f
		case amnesicMsg:
		default:
			return f
		}
	}
	f.removed = f.removed.add(m.ID.From)
	f.term = f.term.onRemoved(m.ID.From)
	return f
}

// classify is Figure 2's modification of the termination protocol: the
// sender of a decision message has halted, so it leaves UP, and a commit
// decision counts as committable evidence.
func (f fallback) classify(from sim.ProcID, d sim.Decision) fallback {
	f.removed = f.removed.add(from)
	if d == sim.Commit {
		f.term = f.term.onEvidence()
	}
	f.term = f.term.onRemoved(from)
	return f
}

// send takes the termination protocol's next round-message send.
func (f fallback) send() (fallback, []sim.Envelope) {
	core, env := f.term.sendStep()
	f.term = core
	return f, []sim.Envelope{env}
}

// settle returns the processor's decision: decided if it has one, else the
// termination protocol's once that is done. A decision is never revoked.
func (f fallback) settle(decided sim.Decision) sim.Decision {
	if decided == sim.NoDecision && f.term.done {
		return f.term.decision()
	}
	return decided
}

// appendKey appends " rm<removed>" and, inside the termination protocol,
// " [<core key>]".
func (f fallback) appendKey(buf []byte, inTerm bool) []byte {
	buf = f.removed.appendKey(append(buf, " rm"...))
	if inTerm {
		buf = append(f.term.appendKey(append(buf, " ["...)), ']')
	}
	return buf
}

// amnesia is the announcement of Corollary 11's ST variants (tree and
// chain): an amnesic processor that learns of a failure tells every
// processor not known to be gone, once, so that their termination
// protocols drop it from UP.
type amnesia struct {
	sent bool    // the announcement is complete
	out  procSet // targets not yet sent
}

// hear is an amnesic processor's reaction to m. It records a failed sender
// in removed, and the first notice or termination-protocol message starts
// the announcement.
func (a amnesia) hear(self sim.ProcID, n int, removed procSet, m sim.Message) (amnesia, procSet) {
	if m.Notice {
		removed = removed.add(m.ID.From)
	}
	if (m.Notice || isTermPayload(m.Payload)) && !a.sent && a.out.empty() {
		a.out = allProcs(n).del(self).minus(removed)
		a.sent = a.out.empty()
	}
	return a, removed
}

// sending reports whether announcement targets remain.
func (a amnesia) sending() bool { return !a.out.empty() }

// send takes the announcement's next send.
func (a amnesia) send() (amnesia, []sim.Envelope) {
	to := a.out.lowest()
	a.out = a.out.del(to)
	a.sent = a.out.empty()
	return a, []sim.Envelope{{To: to, Payload: amnesicMsg{}}}
}

// appendKey appends " asent" once the announcement is complete and
// " aout<set>" while targets remain.
func (a amnesia) appendKey(buf []byte) []byte {
	if a.sent {
		buf = append(buf, " asent"...)
	}
	if !a.out.empty() {
		buf = a.out.appendKey(append(buf, " aout"...))
	}
	return buf
}

// appendOut appends pending envelopes copy-on-write: the result never shares
// a backing array with out. State values flow through the checker's
// configuration graph by value, so an in-place append could write into the
// spare capacity of a slice still referenced by a sibling configuration.
func appendOut(out []outItem, items ...outItem) []outItem {
	fresh := make([]outItem, 0, len(out)+len(items))
	fresh = append(fresh, out...)
	return append(fresh, items...)
}

// broadcastOut appends one send of payload to each member of to, in
// ascending order, copy-on-write like appendOut and in one allocation: a
// broadcast to k processors copies the queue once, not k times.
func broadcastOut(out []outItem, to procSet, payload sim.Payload) []outItem {
	if to.empty() {
		return out
	}
	fresh := make([]outItem, 0, len(out)+to.count())
	fresh = append(fresh, out...)
	for rest := to.lo; rest != 0; rest &= rest - 1 {
		fresh = append(fresh, outItem{to: sim.ProcID(bits.TrailingZeros64(rest)), payload: payload})
	}
	for rest := to.hi; rest != 0; rest &= rest - 1 {
		fresh = append(fresh, outItem{to: sim.ProcID(64 + bits.TrailingZeros64(rest)), payload: payload})
	}
	return fresh
}

// dropHead returns a non-empty queue without its head. It reslices rather
// than copies, with the capacity cut to the length, so the next append to
// the result copies (appendOut, broadcastOut) and never writes into the
// array the queue shares with the state it came from. A drained queue is nil.
func dropHead(out []outItem) []outItem {
	if len(out) == 1 {
		return nil
	}
	return out[1:len(out):len(out)]
}

// appendEarly inserts an early message keeping the slice canonical (sorted)
// and duplicate-free, copying on write.
func appendEarly(early []earlyMsg, e earlyMsg) []earlyMsg {
	out := make([]earlyMsg, 0, len(early)+1)
	out = append(out, early...)
	for _, x := range out {
		if x == e {
			return out
		}
	}
	out = append(out, e)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return !out[i].Committable && out[j].Committable
	})
	return out
}

// decision returns the core's final decision once done.
func (c termCore) decision() sim.Decision {
	if c.bias {
		return sim.Commit
	}
	return sim.Abort
}
