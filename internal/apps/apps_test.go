package apps

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/splitc"
)

func newRT(pes int) *splitc.Runtime {
	cfg := machine.DefaultConfig(pes)
	cfg.MemBytes = 2 << 20
	return splitc.NewRuntime(machine.New(cfg), splitc.DefaultConfig())
}

func randKeys(rng *rand.Rand, pes, perPE int, space uint64) [][]uint64 {
	out := make([][]uint64, pes)
	for pe := range out {
		for i := 0; i < perPE; i++ {
			out[pe] = append(out[pe], rng.Uint64()%space)
		}
	}
	return out
}

func TestHistogramAllMethodsValidate(t *testing.T) {
	for _, m := range []HistogramMethod{HistLocalReduce, HistRemoteRMW, HistAM} {
		t.Run(m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			keys := randKeys(rng, 4, 24, 1<<30)
			res := Histogram(newRT(4), keys, 16, m)
			if !res.Validated {
				t.Errorf("%v: counts do not match the reference", m)
			}
			if res.Cycles <= 0 {
				t.Errorf("%v: no time elapsed", m)
			}
		})
	}
}

func TestHistogramMethodOrdering(t *testing.T) {
	// The bulk-synchronous local+reduce structure must beat lock-based
	// remote read-modify-write by a wide margin — the application-level
	// echo of the paper's primitive costs.
	rng := rand.New(rand.NewSource(11))
	keys := randKeys(rng, 4, 32, 1<<20)
	local := Histogram(newRT(4), keys, 16, HistLocalReduce)
	rmw := Histogram(newRT(4), keys, 16, HistRemoteRMW)
	if !local.Validated || !rmw.Validated {
		t.Fatal("validation failed")
	}
	if local.Cycles*2 > rmw.Cycles {
		t.Errorf("local+reduce (%d cy) should be far cheaper than lock-based RMW (%d cy)",
			local.Cycles, rmw.Cycles)
	}
}

func TestSampleSortValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := randKeys(rng, 4, 40, 1<<40)
	res := SampleSort(newRT(4), keys)
	if !res.Validated {
		t.Fatal("sample sort output is not the sorted reference")
	}
	if res.Keys != 160 {
		t.Errorf("sorted %d keys", res.Keys)
	}
}

func TestSampleSortUnevenInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := [][]uint64{
		randKeys(rng, 1, 50, 1000)[0],
		randKeys(rng, 1, 10, 1000)[0],
		{},
		randKeys(rng, 1, 30, 1000)[0],
	}
	res := SampleSort(newRT(4), keys)
	if !res.Validated {
		t.Fatal("uneven sample sort failed")
	}
}

func TestSampleSortDuplicateKeys(t *testing.T) {
	keys := [][]uint64{
		{5, 5, 5, 1, 1},
		{5, 5, 2, 2, 9},
	}
	res := SampleSort(newRT(2), keys)
	if !res.Validated {
		t.Fatal("duplicate-heavy sort failed")
	}
}

func TestMatMulValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 16
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.Float64()*2 - 1
		}
	}
	res := MatMul(newRT(4), a)
	if !res.Validated {
		t.Fatal("matmul result does not match the reference")
	}
	if res.Cycles <= 0 {
		t.Error("no time elapsed")
	}
}

func TestMatMulSinglePE(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	res := MatMul(newRT(1), a)
	if !res.Validated {
		t.Fatal("1-PE matmul failed")
	}
}

func TestMatMulSizeChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("indivisible size did not panic")
		}
	}()
	a := make([][]float64, 3)
	for i := range a {
		a[i] = make([]float64, 3)
	}
	MatMul(newRT(2), a)
}
