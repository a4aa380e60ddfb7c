package priority

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueEmpty(t *testing.T) {
	q := NewQueue(4)
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
	if _, _, ok := q.Max(); ok {
		t.Error("Max on empty queue returned ok")
	}
	if _, _, ok := q.PopMax(); ok {
		t.Error("PopMax on empty queue returned ok")
	}
}

func TestQueueBasicOrdering(t *testing.T) {
	q := NewQueue(8)
	q.Upsert(0, 3)
	q.Upsert(1, 7)
	q.Upsert(2, 1)
	q.Upsert(3, 5)
	want := []int{1, 3, 0, 2}
	for _, w := range want {
		id, _, ok := q.PopMax()
		if !ok || id != w {
			t.Fatalf("PopMax = %d (ok=%v), want %d", id, ok, w)
		}
	}
}

func TestQueueUpsertUpdates(t *testing.T) {
	q := NewQueue(4)
	q.Upsert(0, 1)
	q.Upsert(1, 2)
	q.Upsert(0, 10) // raise
	if id, pri, _ := q.Max(); id != 0 || pri != 10 {
		t.Fatalf("after raise: Max = (%d,%v), want (0,10)", id, pri)
	}
	q.Upsert(0, 0.5) // lower
	if id, _, _ := q.Max(); id != 1 {
		t.Fatalf("after lower: Max = %d, want 1", id)
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue(4)
	q.Upsert(0, 5)
	q.Upsert(1, 9)
	q.Upsert(2, 3)
	q.Remove(1)
	if q.Contains(1) {
		t.Error("Contains(1) after Remove")
	}
	if id, _, _ := q.Max(); id != 0 {
		t.Errorf("Max after remove = %d, want 0", id)
	}
	q.Remove(1) // idempotent
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
}

func TestQueueRemoveAbsentNoop(t *testing.T) {
	q := NewQueue(2)
	q.Remove(17) // beyond capacity, absent — must not panic
	q.Upsert(0, 1)
	q.Remove(1)
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
}

func TestQueueGrowsBeyondCapacity(t *testing.T) {
	q := NewQueue(1)
	for i := 0; i < 100; i++ {
		q.Upsert(i, float64(i))
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	if id, _, _ := q.Max(); id != 99 {
		t.Errorf("Max = %d, want 99", id)
	}
}

func TestQueuePriorityLookup(t *testing.T) {
	q := NewQueue(4)
	q.Upsert(2, 6.5)
	if got := q.Priority(2); got != 6.5 {
		t.Errorf("Priority(2) = %v, want 6.5", got)
	}
	if got := q.Priority(3); got != 0 {
		t.Errorf("Priority(absent) = %v, want 0", got)
	}
}

// checkInvariants validates the heap property and the position map.
func checkInvariants(t *testing.T, q *Queue) {
	t.Helper()
	for k := 0; k < q.size; k++ {
		l, r := 2*k+1, 2*k+2
		if l < q.size && q.pri[l] > q.pri[k] {
			t.Fatalf("heap violation at %d/%d", k, l)
		}
		if r < q.size && q.pri[r] > q.pri[k] {
			t.Fatalf("heap violation at %d/%d", k, r)
		}
		if int(q.pos[q.ids[k]]) != k {
			t.Fatalf("position map broken for id %d", q.ids[k])
		}
	}
}

func TestQueueRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		const n = 200
		q := NewQueue(n)
		ref := map[int]float64{}
		for op := 0; op < 2000; op++ {
			id := rng.Intn(n)
			switch rng.Intn(3) {
			case 0, 1:
				p := rng.Float64() * 100
				q.Upsert(id, p)
				ref[id] = p
			case 2:
				q.Remove(id)
				delete(ref, id)
			}
		}
		checkInvariants(t, q)
		if q.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(ref))
		}
		// Drain and compare against sorted reference.
		type pair struct {
			id  int
			pri float64
		}
		var want []pair
		for id, p := range ref {
			want = append(want, pair{id, p})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].pri > want[j].pri })
		for i := range want {
			_, pri, ok := q.PopMax()
			if !ok {
				t.Fatalf("queue drained early at %d", i)
			}
			if pri != want[i].pri {
				t.Fatalf("pop %d: pri = %v, want %v", i, pri, want[i].pri)
			}
		}
	}
}

// Property: after any sequence of upserts, PopMax yields non-increasing
// priorities.
func TestQueuePopMonotone(t *testing.T) {
	f := func(pris []float64) bool {
		q := NewQueue(len(pris))
		for i, p := range pris {
			q.Upsert(i, p)
		}
		prev, first := 0.0, true
		for {
			_, p, ok := q.PopMax()
			if !ok {
				break
			}
			if !first && p > prev {
				return false
			}
			prev, first = p, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQueueUpsertPop(b *testing.B) {
	const n = 1024
	q := NewQueue(n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		q.Upsert(rng.Intn(n), rng.Float64())
		if i%4 == 3 {
			q.PopMax()
		}
	}
}
