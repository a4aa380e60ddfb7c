package core

import (
	"cmp"
	"math"
	"slices"
)

// Cache is the cache-side half of the protocol. It tracks the most recent
// threshold each source piggybacked on a refresh message and selects
// feedback targets: "If it is not possible to provide feedback to every
// source, the sources with the highest local thresholds are selected"
// (Section 5).
type Cache struct {
	thresholds []float64 // last piggybacked threshold per source
	heard      []bool    // whether any refresh has arrived from the source
	greets     []int     // warm-up feedbacks sent while still unheard
	order      []int     // scratch buffer for target selection
	feedbacks  int
}

// warmupGreetLimit bounds the feedback messages an unheard source may
// receive at warm-up priority. An unheard source outranks every heard one
// (its threshold is unknown and possibly stuck above all its priorities),
// but a source that stays silent through this many feedbacks has nothing to
// say — in a cooperative mesh, a lateral peer whose entire object set is
// split-horizon-suppressed toward this cache never sends, and without the
// bound such peers camp at warm-up priority forever and absorb the whole
// per-tick feedback budget, starving the sources that are actually pushing
// (their thresholds then grow unchecked). Once the source is finally heard
// it competes by real threshold like everyone else.
const warmupGreetLimit = 8

// NewCache constructs the cache engine for m sources.
func NewCache(sources int) *Cache {
	c := &Cache{
		thresholds: make([]float64, sources),
		heard:      make([]bool, sources),
		greets:     make([]int, sources),
	}
	for i := range c.thresholds {
		c.thresholds[i] = math.Inf(1) // unheard sources sort first
	}
	return c
}

// ObserveThreshold records the threshold piggybacked on a refresh from src.
func (c *Cache) ObserveThreshold(src int, threshold float64) {
	if src < 0 || src >= len(c.thresholds) {
		return
	}
	c.thresholds[src] = threshold
	c.heard[src] = true
}

// KnownThreshold returns the last observed threshold for src and whether any
// refresh has been heard from it.
func (c *Cache) KnownThreshold(src int) (float64, bool) {
	if src < 0 || src >= len(c.thresholds) {
		return 0, false
	}
	return c.thresholds[src], c.heard[src]
}

// Greets returns how many warm-up feedbacks were sent to src while it was
// unheard (used to preserve the give-up state across tracker re-sizes).
func (c *Cache) Greets(src int) int {
	if src < 0 || src >= len(c.greets) {
		return 0
	}
	return c.greets[src]
}

// SetGreets restores a warm-up greeting count (tracker re-size transfer).
func (c *Cache) SetGreets(src, n int) {
	if src < 0 || src >= len(c.greets) {
		return
	}
	c.greets[src] = n
}

// Feedbacks returns the number of feedback targets handed out.
func (c *Cache) Feedbacks() int { return c.feedbacks }

// givenUp reports whether src exhausted its warm-up greetings without ever
// sending a refresh. Such sources are dropped from feedback targeting until
// they are heard from.
func (c *Cache) givenUp(src int) bool {
	return !c.heard[src] && c.greets[src] >= warmupGreetLimit
}

// PickFeedbackTargets returns up to k distinct sources ordered by descending
// known threshold. Sources never heard from rank first (their piggybacked
// threshold is unknown and may be arbitrarily high — reaching them quickly
// shortens warm-up) but only for warmupGreetLimit feedbacks; a source still
// silent after that is excluded until heard from, so permanently quiet links
// cannot starve the active sources. For the negative-feedback ablation,
// ascending order is selected instead (the cache slows down the most
// aggressive senders, i.e. lowest thresholds).
func (c *Cache) PickFeedbackTargets(k int, ascending bool) []int {
	m := len(c.thresholds)
	if k > m {
		k = m
	}
	if k <= 0 {
		return nil
	}
	if cap(c.order) < m {
		c.order = make([]int, m)
	}
	order := c.order[:0]
	for i := 0; i < m; i++ {
		if !c.givenUp(i) {
			order = append(order, i)
		}
	}
	// slices.SortFunc, unlike sort.Slice, boxes no swapper and lets the
	// comparison closure stay on the stack: a pick allocates nothing.
	slices.SortFunc(order, func(a, b int) int {
		if d := cmp.Compare(c.thresholds[a], c.thresholds[b]); d != 0 {
			if ascending {
				return d
			}
			return -d
		}
		return a - b
	})
	if k > len(order) {
		k = len(order)
	}
	targets := order[:k]
	for _, i := range targets {
		if !c.heard[i] {
			c.greets[i]++
		}
	}
	c.feedbacks += k
	return targets
}
