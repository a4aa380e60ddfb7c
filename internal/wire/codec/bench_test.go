package codec

import (
	"fmt"
	"testing"

	"bestsync/internal/wire"
)

// benchBatch builds a representative batch: realistic id lengths, every
// refresh distinct, no provenance (the common single-hop case).
func benchBatch(n int) wire.RefreshBatch {
	rs := make([]wire.Refresh, n)
	for i := range rs {
		rs[i] = wire.Refresh{
			SourceID: "src-42",
			ObjectID: fmt.Sprintf("src-42/object-%04d", i),
			Version:  uint64(i + 1),
			Epoch:    3,
			Value:    float64(i) * 1.5,
			SentUnix: 1700000000000000000,
		}
	}
	return wire.RefreshBatch{Refreshes: rs, SentUnix: 1700000000000000000}
}

// BenchmarkEncodeBatch measures the encoder on the hot frame, reporting
// ns/refresh — the number the wire-path roadmap item targets.
func BenchmarkEncodeBatch(b *testing.B) {
	for _, size := range []int{1, 64, 256} {
		batch := benchBatch(size)
		b.Run(fmt.Sprintf("binary/batch=%d", size), func(b *testing.B) {
			var enc Encoder
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = enc.AppendBatch(buf[:0], batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/refresh")
		})
	}
}

// replayReader yields the same encoded bytes forever, so decoder benchmarks
// measure parsing, not buffer refills.
type replayReader struct {
	data []byte
	off  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func BenchmarkDecodeBatch(b *testing.B) {
	for _, size := range []int{1, 64, 256} {
		batch := benchBatch(size)
		b.Run(fmt.Sprintf("binary/batch=%d", size), func(b *testing.B) {
			var enc Encoder
			frame := enc.AppendBatch(nil, batch)
			d := NewDecoder(&replayReader{data: frame})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.ReadCacheBound(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/refresh")
		})
	}
}

// BenchmarkNewBatchFrame measures the pooled encode-once path a Batcher
// uses: steady state must not allocate.
func BenchmarkNewBatchFrame(b *testing.B) {
	batch := benchBatch(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewBatchFrame(batch.Refreshes, batch.SentUnix)
		f.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/refresh")
}

// relayedBatch shapes benchBatch like one hop out of an upstream relay:
// origin axis set, one Via entry — the input SpliceForward sees in a tree.
func relayedBatch(n int) wire.RefreshBatch {
	batch := benchBatch(n)
	for i := range batch.Refreshes {
		r := &batch.Refreshes[i]
		r.Origin = "origin-1"
		r.Hops = 1
		r.Via = []string{"src-42"}
		r.OriginEpoch = 3
		r.OriginVersion = r.Version
	}
	return batch
}

// BenchmarkSpliceForward measures the relay re-export encode per refresh:
// the splice path (span-index the inbound frame, patch the per-hop fields)
// against the classic decode-side rebuild (PatchForward + NewBatchFrame)
// over the same inbound frame. Steady-state splice must not allocate beyond
// the patched Via paths PatchForward materializes — the splice side itself
// reuses pooled views and frames.
func BenchmarkSpliceForward(b *testing.B) {
	for _, size := range []int{1, 64, 256} {
		batch := relayedBatch(size)
		inbound := NewBatchFrame(batch.Refreshes, batch.SentUnix)
		defer inbound.Release()
		keep := make([]bool, size)
		versions := make([]uint64, size)
		for i := range keep {
			keep[i] = true
			versions[i] = uint64(i + 100)
		}
		fp := ForwardPatch{SourceID: "relay-7", Epoch: 9, Threshold: 0.25, SentUnix: 1700000000000000001}
		b.Run(fmt.Sprintf("splice/batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := ParseBatchFrame(inbound.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				f := SpliceForward(v, keep, versions, fp)
				f.Release()
				v.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/refresh")
		})
		b.Run(fmt.Sprintf("reencode/batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := PatchForward(batch.Refreshes, keep, versions, fp)
				f := NewBatchFrame(out, fp.SentUnix)
				f.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/refresh")
		})
	}
}
