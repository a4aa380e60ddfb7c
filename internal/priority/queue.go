package priority

import "math"

func inf() float64           { return math.Inf(1) }
func sqrt(x float64) float64 { return math.Sqrt(x) }

// Queue is an indexed max-heap of (object id, priority) pairs supporting
// O(log n) upsert and removal by id. Object ids are small dense integers
// (indices into the engine's object table), so positions are tracked in a
// slice rather than a map. Ids and positions are stored as int32 — an object
// table never holds 2³¹ objects — which takes 8 B per object off a queue that
// every scheduler keeps; the API speaks int.
//
// Sources use a Queue to locate their highest-priority modified object
// whenever spare source-side bandwidth becomes available (Section 8), and
// the idealized global scheduler uses one per source plus a queue of
// sources.
type Queue struct {
	ids  []int32   // heap of object ids
	pri  []float64 // pri[k] is the priority of ids[k]
	pos  []int32   // pos[id] = index in ids, or -1
	size int
}

// NewQueue returns a queue sized for ids in [0, capacity).
func NewQueue(capacity int) *Queue {
	q := &Queue{pos: make([]int32, capacity)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

// Len returns the number of entries.
func (q *Queue) Len() int { return q.size }

// Contains reports whether id is in the queue.
func (q *Queue) Contains(id int) bool {
	return id >= 0 && id < len(q.pos) && q.pos[id] >= 0
}

// Priority returns the stored priority for id, or 0 if absent.
func (q *Queue) Priority(id int) float64 {
	if !q.Contains(id) {
		return 0
	}
	return q.pri[q.pos[id]]
}

// grow extends the position table to accommodate id.
func (q *Queue) grow(id int) {
	for len(q.pos) <= id {
		q.pos = append(q.pos, -1)
	}
}

// Upsert inserts id with the given priority, or updates its priority if
// already present.
func (q *Queue) Upsert(id int, pri float64) {
	q.grow(id)
	if k := int(q.pos[id]); k >= 0 {
		old := q.pri[k]
		q.pri[k] = pri
		if pri > old {
			q.up(k)
		} else if pri < old {
			q.down(k)
		}
		return
	}
	if q.size == len(q.ids) {
		q.ids = append(q.ids, int32(id))
		q.pri = append(q.pri, pri)
	} else {
		q.ids[q.size] = int32(id)
		q.pri[q.size] = pri
	}
	q.pos[id] = int32(q.size)
	q.size++
	q.up(q.size - 1)
}

// Remove deletes id from the queue if present.
func (q *Queue) Remove(id int) {
	if !q.Contains(id) {
		return
	}
	k := int(q.pos[id])
	q.swap(k, q.size-1)
	q.pos[id] = -1
	q.size--
	if k < q.size {
		q.down(k)
		q.up(k)
	}
}

// Max returns the id and priority of the highest-priority entry without
// removing it. ok is false when the queue is empty.
func (q *Queue) Max() (id int, pri float64, ok bool) {
	if q.size == 0 {
		return 0, 0, false
	}
	return int(q.ids[0]), q.pri[0], true
}

// PopMax removes and returns the highest-priority entry.
func (q *Queue) PopMax() (id int, pri float64, ok bool) {
	if q.size == 0 {
		return 0, 0, false
	}
	id, pri = int(q.ids[0]), q.pri[0]
	q.Remove(id)
	return id, pri, true
}

func (q *Queue) swap(i, j int) {
	if i == j {
		return
	}
	q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
	q.pri[i], q.pri[j] = q.pri[j], q.pri[i]
	q.pos[q.ids[i]] = int32(i)
	q.pos[q.ids[j]] = int32(j)
}

func (q *Queue) up(k int) {
	for k > 0 {
		parent := (k - 1) / 2
		if q.pri[parent] >= q.pri[k] {
			break
		}
		q.swap(parent, k)
		k = parent
	}
}

func (q *Queue) down(k int) {
	for {
		l, r := 2*k+1, 2*k+2
		largest := k
		if l < q.size && q.pri[l] > q.pri[largest] {
			largest = l
		}
		if r < q.size && q.pri[r] > q.pri[largest] {
			largest = r
		}
		if largest == k {
			return
		}
		q.swap(k, largest)
		k = largest
	}
}
