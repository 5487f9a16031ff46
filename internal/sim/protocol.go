package sim

// Protocol is a consensus protocol: a set of N deterministic processors, each
// specified by a state transition function δ_p (Receive) and a sending
// function β_p (SendStep), as in Section 3 of the paper.
//
// Protocol implementations must be pure: transition functions may not mutate
// their arguments and must return the same result for the same (state,
// message) pair. All nondeterminism belongs to the schedule.
type Protocol interface {
	// Name identifies the protocol in traces and experiment output.
	Name() string

	// N returns the number of participating processors.
	N() int

	// Init returns the initial state of processor p with initial bit
	// input — the paper's z_0 or z_1 — in a system of n processors.
	Init(p ProcID, input Bit, n int) State

	// Receive is the transition function δ_p restricted to receiving
	// states: it consumes one message (possibly a failure notice) and
	// returns the successor state.
	Receive(p ProcID, s State, m Message) State

	// SendStep is the sending step for sending states: it returns the
	// successor state and at most one envelope (β_p sends at most one
	// message per normal step). Envelopes addressed to p itself are
	// rejected by Apply — processors may not send to themselves.
	SendStep(p ProcID, s State) (State, []Envelope)
}

// DecisionFunc computes the failure-free decision a protocol should reach on
// the given inputs; used by tests and the E̅-elimination transform, which is
// only decision-preserving when the failure-free decision is a function of
// the inputs alone (true of unanimity, Section 3).
type DecisionFunc func(inputs []Bit) Decision

// Unanimity is the unanimity decision function: commit iff every initial bit
// is 1.
func Unanimity(inputs []Bit) Decision {
	for _, b := range inputs {
		if b == Zero {
			return Abort
		}
	}
	return Commit
}

// AllInputs enumerates every input vector of length n in lexicographic
// order — 2^n vectors — for exhaustive checking.
func AllInputs(n int) [][]Bit {
	total := 1 << n
	out := make([][]Bit, 0, total)
	for mask := 0; mask < total; mask++ {
		v := make([]Bit, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v[i] = One
			}
		}
		out = append(out, v)
	}
	return out
}

// InputsFromString parses a vector like "1011" into bits. Any rune other
// than '1' is Zero only if it is '0'; other runes are rejected.
func InputsFromString(s string) ([]Bit, error) {
	out := make([]Bit, 0, len(s))
	for _, r := range s {
		switch r {
		case '0':
			out = append(out, Zero)
		case '1':
			out = append(out, One)
		default:
			return nil, &InvalidInputError{Input: s}
		}
	}
	return out, nil
}

// InputsString renders a vector as "1011", the form InputsFromString parses.
func InputsString(inputs []Bit) string {
	return string(appendInputs(make([]byte, 0, len(inputs)), inputs))
}

// appendInputs appends InputsString(inputs) to dst.
func appendInputs(dst []byte, inputs []Bit) []byte {
	for _, b := range inputs {
		if b == One {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	return dst
}

// InvalidInputError reports a malformed input-vector string.
type InvalidInputError struct{ Input string }

func (e *InvalidInputError) Error() string {
	return "sim: invalid input vector " + e.Input + " (want only '0' and '1')"
}
