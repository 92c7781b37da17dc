// Package portconsumer exercises the discarded-status check.
package portconsumer

import (
	"biscuit/internal/isfs"
	"biscuit/internal/ports"
)

func useQueue(q *ports.Queue) int {
	q.Put(1)       // want `result of ports\.Put discarded`
	defer q.Put(2) // want `result of ports\.Put discarded`
	q.TryGet()     // want `result of ports\.TryGet discarded`
	if !q.Put(3) { // consumed: fine
		return 0
	}
	v, ok := q.TryGet() // consumed: fine
	if !ok {
		return 0
	}
	_ = q.Put(4) // explicit, reviewable discard: fine
	q.Close()    // no status result: fine
	return v
}

func useFile(f *isfs.File) error {
	f.Write(0, nil) // want `result of isfs\.Write discarded`
	f.Flush()       // no status result: fine
	//biscuitvet:ignore portcheck: teardown path, best-effort write
	f.Write(8, nil)
	return f.Write(16, nil) // consumed: fine
}

func localsUnwatched() {
	helper() // a local bool-returning call is not this analyzer's business
}

func helper() bool { return true }
