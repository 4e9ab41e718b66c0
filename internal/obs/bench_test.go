package obs

import (
	"testing"
	"time"
)

// benchLatencies is a fixed bimodal latency mix (fast cache hits plus a
// slow miss tail) spread over a few dozen buckets, cycled by the
// benchmarks so every run records the same population.
func benchLatencies() []time.Duration {
	ds := make([]time.Duration, 1024)
	for i := range ds {
		us := 40 + (i*37)%200 // 40..239us hits
		if i%8 == 0 {
			us = 2000 + (i*911)%30000 // 2..32ms misses
		}
		ds[i] = time.Duration(us) * time.Microsecond
	}
	return ds
}

// BenchmarkRecorderObserve prices the hot-path call every request pays,
// alone and with every GOMAXPROCS goroutine recording into one recorder.
func BenchmarkRecorderObserve(b *testing.B) {
	ds := benchLatencies()
	b.Run("mode=serial", func(b *testing.B) {
		rec := NewRecorder("bench", "", RecorderOptions{Learned: true})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Observe(ds[i&1023])
		}
	})
	b.Run("mode=parallel", func(b *testing.B) {
		rec := NewRecorder("bench", "", RecorderOptions{Learned: true})
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				rec.Observe(ds[i&1023])
				i++
			}
		})
	})
}

// BenchmarkRecorderSnapshot prices one background snapshot (k=6, the
// server default) of a learned recorder holding 100k observations.
func BenchmarkRecorderSnapshot(b *testing.B) {
	ds := benchLatencies()
	rec := NewRecorder("bench", "", RecorderOptions{Learned: true})
	for i := 0; i < 100000; i++ {
		rec.Observe(ds[i&1023])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Snapshot(6)
	}
}
