package collective

import (
	"fmt"
	"testing"

	"segscale/internal/transport"
)

func benchAllreduce(b *testing.B, fn allreduceFn, p, n int) {
	b.Helper()
	group := make([]int, p)
	for i := range group {
		group[i] = i
	}
	data := make([][]float32, p)
	for r := range data {
		data[r] = make([]float32, n)
		for i := range data[r] {
			data[r][i] = float32(r + i)
		}
	}
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transport.Run(p, func(c *transport.Comm) error {
			buf := make([]float32, n)
			copy(buf, data[c.Rank()])
			if err := fn(c, group, buf); err != nil {
				b.Error(err)
			}
			return nil
		})
	}
}

func BenchmarkAllreduce(b *testing.B) {
	algs := []struct {
		name string
		fn   allreduceFn
	}{
		{"ring", AllreduceRing[float32]},
		{"recursive-doubling", AllreduceRecursiveDoubling[float32]},
		{"rabenseifner", AllreduceRabenseifner[float32]},
		{"naive", AllreduceNaive[float32]},
	}
	for _, alg := range algs {
		for _, p := range []int{4, 8} {
			for _, n := range []int{1 << 10, 1 << 16} {
				b.Run(fmt.Sprintf("%s/p%d/n%d", alg.name, p, n), func(b *testing.B) {
					benchAllreduce(b, alg.fn, p, n)
				})
			}
		}
	}
}
