package runtime

import (
	"slices"
	"testing"
)

// drain pops every key of s in order.
func drain(s *keySet) []int {
	var out []int
	for k, ok := s.pop(); ok; k, ok = s.pop() {
		out = append(out, k)
	}
	return out
}

func TestKeySet(t *testing.T) {
	t.Run("set is idempotent and counted", func(t *testing.T) {
		var s keySet
		for _, k := range []int{5, 5, 70, 5, 0, 70} {
			s.set(k)
		}
		if s.n != 3 || len(s.bits) != 2 {
			t.Fatalf("n = %d, %d words after setting 3 distinct keys, want 3 and 2", s.n, len(s.bits))
		}
		if got := drain(&s); !slices.Equal(got, []int{0, 5, 70}) || s.n != 0 {
			t.Fatalf("drained %v leaving n = %d, want [0 5 70] and 0", got, s.n)
		}
	})

	t.Run("grows on set, not before", func(t *testing.T) {
		var s keySet
		if _, ok := s.pop(); ok || s.bits != nil {
			t.Fatal("an empty set popped a key or holds words")
		}
		s.set(64*9 + 3)
		if len(s.bits) != 10 || s.n != 1 {
			t.Fatalf("%d words, n = %d after setting key 579, want 10 and 1", len(s.bits), s.n)
		}
		s.fill(130)
		if s.n != 131 || len(s.bits) != 10 {
			t.Fatalf("n = %d, %d words after fill(130) over key 579, want 131 and 10", s.n, len(s.bits))
		}
		var f keySet
		f.fill(130)
		if f.n != 130 || len(f.bits) != 3 {
			t.Fatalf("fill(130): n = %d, %d words, want 130 and 3", f.n, len(f.bits))
		}
		if got := drain(&f); len(got) != 130 || got[0] != 0 || got[129] != 129 {
			t.Fatalf("fill(130) drained %d keys %v…, want 0..129", len(got), got[:min(3, len(got))])
		}
	})

	t.Run("drain wraps at the cursor", func(t *testing.T) {
		var s keySet
		for _, k := range []int{3, 9, 70, 200} {
			s.set(k)
		}
		if k, _ := s.pop(); k != 3 {
			t.Fatalf("first pop = %d, want 3", k)
		}
		if k, _ := s.pop(); k != 9 {
			t.Fatalf("second pop = %d, want 9", k)
		}
		// Keys set behind the cursor wait for the wrap, so a key set again
		// and again cannot starve the rest.
		s.set(3)
		s.set(4)
		s.set(150)
		if got := drain(&s); !slices.Equal(got, []int{70, 150, 200, 3, 4}) {
			t.Fatalf("drained %v, want [70 150 200 3 4]", got)
		}
		if s.n != 0 {
			t.Fatalf("n = %d after a full drain", s.n)
		}
	})
}
