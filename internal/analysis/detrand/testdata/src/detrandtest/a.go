// Package detrandtest exercises the global-source ban.
package detrandtest

import "math/rand"

func bad() {
	_ = rand.Intn(10)     // want `rand\.Intn uses the process-global random source`
	_ = rand.Float64()    // want `rand\.Float64 uses the process-global random source`
	_ = rand.Int63()      // want `rand\.Int63 uses the process-global random source`
	_ = rand.Perm(4)      // want `rand\.Perm uses the process-global random source`
	rand.Shuffle(3, swap) // want `rand\.Shuffle uses the process-global random source`
	rand.Seed(42)         // want `rand\.Seed uses the process-global random source`
}

func swap(i, j int) {}

func good(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, 13)
	return rng.Intn(10) + int(zipf.Uint64())
}

func waived() float64 {
	return rand.Float64() //biscuitvet:ignore detrand: demo of the escape hatch
}
