package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"bestsync/internal/runtime"
	"bestsync/internal/transport"
)

// benchNode is one cache node plus the plumbing to dial it and tear it down.
type benchNode struct {
	cache   *runtime.Cache
	dial    func(srcID string) transport.SourceConn
	cleanup func()
}

// newBenchNodeCfg starts a cache node from a full CacheConfig on the
// requested transport.
func newBenchNodeCfg(tcp bool, cfg runtime.CacheConfig) benchNode {
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		ep := transport.Serve(ln, 64)
		cache := runtime.NewCache(cfg, ep)
		addr := ln.Addr().String()
		return benchNode{
			cache: cache,
			dial: func(srcID string) transport.SourceConn {
				conn, err := transport.Dial(addr, srcID)
				if err != nil {
					panic(err)
				}
				return conn
			},
			cleanup: func() { cache.Close(); ep.Close() },
		}
	}
	local := transport.NewLocal(64)
	cache := runtime.NewCache(cfg, local)
	return benchNode{
		cache: cache,
		dial: func(srcID string) transport.SourceConn {
			conn, err := local.Dial(srcID)
			if err != nil {
				panic(err)
			}
			return conn
		},
		cleanup: func() { cache.Close(); local.Close() },
	}
}

// pacedRandomWalk drives src with a paced ±1 random walk over
// "<prefix>/obj-N" keys, round-robin, for the given duration, waits 150 ms
// for in-flight batches to land, and returns the canonical values plus the
// elapsed seconds — the policy benchmark's uniform workload without the
// sampling, so the two live benches stay comparable.
func pacedRandomWalk(src *runtime.Source, prefix string, objects int, rate float64, duration time.Duration) ([]float64, float64) {
	return pacedPickWalk(src, prefix, objects, rate, duration, func(step int) int { return step % objects }, nil)
}

// meanAbsDivergence audits a cache against the canonical values: mean
// |canonical − cached| per object, counting missing entries at full
// deviation.
func meanAbsDivergence(c *runtime.Cache, prefix string, values []float64) float64 {
	div := 0.0
	for k, v := range values {
		e, _ := c.Get(fmt.Sprintf("%s/obj-%d", prefix, k))
		div += math.Abs(v - e.Value)
	}
	return div / float64(len(values))
}
