package sim

import (
	"testing"
)

// benchConfig builds a mid-execution configuration with populated buffers,
// the shape the explorer hashes millions of times.
func benchConfig(b *testing.B) *Config {
	proto := digestProto{n: 3}
	c := NewConfig(proto, []Bit{Zero, One, One})
	sched := Schedule{
		{Proc: 0, Type: SendStepEvent},
		{Proc: 1, Type: SendStepEvent},
		{Proc: 2, Type: Fail},
	}
	for _, e := range sched {
		if err := c.ApplyInPlace(proto, e); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkConfigKey measures the old dedup key: building the full
// canonical string for every successor.
func BenchmarkConfigKey(b *testing.B) {
	c := benchConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Key()
	}
}

// BenchmarkConfigFingerprintCold measures a from-scratch fingerprint:
// what a root configuration pays once.
func BenchmarkConfigFingerprintCold(b *testing.B) {
	c := benchConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.fpOK = false
		_ = c.Fingerprint()
	}
}

// BenchmarkPredictFail measures the new dedup key for a failure
// successor: incremental derivation from the parent fingerprint, no
// successor materialization.
func BenchmarkPredictFail(b *testing.B) {
	proto := digestProto{n: 3}
	pr := NewPredictor()
	c := benchConfig(b)
	c.Fingerprint()
	ev := Event{Proc: 0, Type: Fail}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := pr.Predict(proto, c, ev); !ok {
			b.Fatal("prediction failed")
		}
	}
}

// BenchmarkApplyThenKey measures the old successor admission path:
// materialize via Apply, then build the canonical key.
func BenchmarkApplyThenKey(b *testing.B) {
	proto := digestProto{n: 3}
	c := benchConfig(b)
	ev := Event{Proc: 0, Type: Fail}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		next, _, err := Apply(proto, c, ev)
		if err != nil {
			b.Fatal(err)
		}
		_ = next.Key()
	}
}

// BenchmarkBufferAdd measures persistent insertion with cached keys.
func BenchmarkBufferAdd(b *testing.B) {
	var buf Buffer
	for i := 1; i <= 6; i++ {
		buf = buf.Add(Message{ID: MsgID{From: 0, To: 1, Seq: i}, Payload: dpPayload{bit: Bit(i % 2)}}.Memoized())
	}
	m := Message{ID: MsgID{From: 2, To: 1, Seq: 1}, Payload: dpPayload{bit: One}}.Memoized()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = buf.Add(m)
	}
}

// BenchmarkBufferRemoveMsg measures binary-search removal.
func BenchmarkBufferRemoveMsg(b *testing.B) {
	var buf Buffer
	for i := 1; i <= 6; i++ {
		buf = buf.Add(Message{ID: MsgID{From: 0, To: 1, Seq: i}, Payload: dpPayload{bit: Bit(i % 2)}}.Memoized())
	}
	victim := buf[3]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := buf.RemoveMsg(victim); !ok {
			b.Fatal("remove failed")
		}
	}
}
