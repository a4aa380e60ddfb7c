package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
)

// stepClock is a clock that moves forward by a fixed step on every reading,
// so any two readings are ordered exactly as they were taken: a goroutine
// that reads the time and THEN waits for a lock holds a reading older than
// that of whoever got the lock first.
type stepClock struct {
	base  time.Time
	reads atomic.Int64
}

func newStepClock() *stepClock { return &stepClock{base: time.Unix(1_700_000_000, 0)} }

func (c *stepClock) Now() time.Time {
	return c.base.Add(time.Duration(c.reads.Add(1)) * time.Microsecond)
}

// TestUpdateReadsClockUnderLock forces the interleaving behind the
// "metric: time went backwards" crash: an Update is parked on Source.mu
// while the lock holder commits a later protocol time to the same object (as
// a commit or a competing update does). Protocol time sampled before
// taking the lock would then run backwards through the object's tracker and
// panic; sampled under the lock it cannot.
func TestUpdateReadsClockUnderLock(t *testing.T) {
	for _, batch := range []bool{false, true} {
		clock := newStepClock()
		src := NewSource(SourceConfig{
			ID: "s", Metric: metric.ValueDeviation, Bandwidth: 1000,
			Tick: time.Hour, Now: clock.Now,
		}, newFakeConn())
		src.Update("x", 1)

		src.mu.Lock()
		parked := clock.reads.Load()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			if batch {
				src.UpdateFromAll([]RelayedUpdate{{ObjectID: "x", Value: 2}})
			} else {
				src.Update("x", 2)
			}
		}()
		// Give the update time to reach the lock (an early clock reading shows
		// as a tick of the counter; a correct one reads nothing until it holds
		// the lock).
		for deadline := time.Now().Add(50 * time.Millisecond); clock.reads.Load() == parked && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		now, unix := src.clock()
		src.updateLocked("x", 3, Provenance{}, now, unix)
		src.mu.Unlock()

		if r := <-done; r != nil {
			t.Errorf("batch=%v: parked update panicked: %v", batch, r)
		}
		src.Close()
	}
}

// TestClockOrderUnderContention is the same property under load, on groups
// of one and on the shared group: several goroutines update random objects
// (singly and in batches) and read Stats while the flusher passes every
// millisecond, all on a stepping clock, where a reading taken before waiting
// for the lock is older than the winner's every time, not once in a blue
// moon. Run under -race.
func TestClockOrderUnderContention(t *testing.T) {
	for _, group := range []bool{false, true} {
		clock := newStepClock()
		local := transport.NewLocal(256)
		cache := NewCache(CacheConfig{Bandwidth: 1e6, Tick: time.Millisecond}, local)
		conns := make([]Destination, 2)
		for i := range conns {
			conn, err := local.Dial(fmt.Sprintf("s-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = Destination{CacheID: fmt.Sprintf("c%d", i), Conn: conn}
		}
		src, err := NewFanoutSource(SourceConfig{
			ID: "s", Metric: metric.ValueDeviation, Bandwidth: 1e5,
			Tick: time.Millisecond, Now: clock.Now,
			Group: GroupConfig{Enabled: group},
		}, conns)
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		deadline := time.Now().Add(150 * time.Millisecond)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("group=%v: %v", group, r)
					}
				}()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; time.Now().Before(deadline); n++ {
					id := fmt.Sprintf("obj-%d", rng.Intn(8))
					switch n % 8 {
					case 0:
						src.UpdateFromAll([]RelayedUpdate{{ObjectID: id, Value: rng.Float64() * 100}})
					case 1:
						src.Stats()
					default:
						src.Update(id, rng.Float64()*100)
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		src.Close()
		cache.Close()
	}
}
