package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{100, 200}
	cases := []struct {
		name  string
		child span
		want  int64
	}{
		{"child inside", span{120, 170}, 50},
		{"child is the whole parent", span{100, 200}, 0},
		{"child starting early is clipped", span{50, 120}, 80},
		{"child ending late is clipped", span{190, 300}, 90},
		{"child covering more than the parent", span{50, 300}, 0},
		{"child before the parent is ignored", span{10, 90}, 100},
		{"child after the parent is ignored", span{210, 220}, 100},
		{"unset child", span{}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.child); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// The five parts foldOp cuts an invocation into add up to its latency.
func TestFoldOpPartsTileTheInvocation(t *testing.T) {
	r := newRecorder(1, requestMask(7), false)
	id := requestID(r.mask, 42)
	op := r.lookup(id)
	if op != nil {
		t.Fatal("record found before it was claimed")
	}
	op = r.slot(id)
	op.claim(id)
	if r.lookup(id) != op {
		t.Fatal("claimed record not found by its ID")
	}
	whole := span{1000, 9000}
	op.feCall.set(span{1500, 8800})
	op.dpHandle.set(span{2500, 8000})
	op.dpCall.set(span{3000, 7000})
	op.wnHandle.set(span{4000, 6500})
	op.user.set(span{5000, 5100})
	op.dpNode.Store(2)
	var f invokeFold
	got := r.foldOp(&f, op, whole, id, true)
	if !got.ok || got.node != 2 || got.arrive != 2500 || got.proxied != 3000 {
		t.Fatalf("folded %+v", got)
	}
	if r.lookup(id) != nil {
		t.Error("record still claimed after the fold")
	}
	// frontend 700, data plane 1500, worker 2400, hops 1700 + 1500.
	sum := f.feSelf.quantile(0.5) + f.dpSelf.quantile(0.5) + f.wnSelf.quantile(0.5) + f.hop.quantile(0) + f.hop.quantile(1)
	if lo, hi := 0.98*float64(whole.dur()-100), 1.02*float64(whole.dur()-100); sum < lo || sum > hi {
		t.Errorf("parts add up to %.0f ns, the invocation minus its body took %d", sum, whole.dur()-100)
	}
	if len(r.raw) != 6 {
		t.Errorf("%d raw spans kept for a sampled invocation, want 6", len(r.raw))
	}
	// A missing span (failed or retried invocation) is not folded.
	op.claim(id)
	if got := r.foldOp(&f, op, whole, id, false); got.ok || f.unjoined != 1 {
		t.Errorf("invocation without spans folded: %+v unjoined=%d", got, f.unjoined)
	}
}
