package lsh

import (
	"testing"

	"exploitbit/internal/dataset"
)

func BenchmarkBuild5000x150(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Name: "b", N: 5000, Dim: 150, Clusters: 20, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds, Params{Seed: 2})
	}
}

// BenchmarkCandidates measures Phase 1 cost per query (collision counting
// with virtual rehashing).
func BenchmarkCandidates5000x150(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Name: "b", N: 5000, Dim: 150, Clusters: 20, Seed: 1})
	ix := Build(ds, Params{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Candidates(ds.Point(i%ds.Len()), 10)
	}
}

// BenchmarkCandidates20000x64 is Phase 1 at the hot-read benchmark
// workload's shape (20k×64 quickstart data, default parameters: m=96).
func BenchmarkCandidates20000x64(b *testing.B) {
	ds := hotReadDS()
	ix := Build(ds, Params{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Candidates(ds.Point(i%ds.Len()), 10)
	}
}
