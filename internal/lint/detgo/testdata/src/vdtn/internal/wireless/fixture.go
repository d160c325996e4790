// Fixture for the detgo analyzer: goroutine launches and WaitGroup
// barriers in a determinism-critical package.
package fixture

import "sync"

// A bare goroutine launch is flagged: interleaving is scheduler state.
func unjustifiedGo(work func()) {
	go work() // want `go statement in a goroutine-audited package`
}

// Each WaitGroup method call is flagged individually.
func unjustifiedBarrier(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)   // want `sync\.WaitGroup\.Add in a goroutine-audited package`
	go func() { // want `go statement in a goroutine-audited package`
		defer wg.Done() // want `sync\.WaitGroup\.Done in a goroutine-audited package`
		work()
	}()
	wg.Wait() // want `sync\.WaitGroup\.Wait in a goroutine-audited package`
}

// A justified fan-out is suppressed, one directive per audited line.
func justifiedFanOut(shard func(i int)) {
	var wg sync.WaitGroup
	//vdtnlint:detgo phase barrier: workers write disjoint shards merged order-independently
	wg.Add(4)
	for i := 0; i < 4; i++ {
		i := i
		//vdtnlint:detgo scan worker: barriered fan-out, no trace emission
		go func() {
			//vdtnlint:detgo phase barrier: signals this worker's shard is done
			defer wg.Done()
			shard(i)
		}()
	}
	//vdtnlint:detgo phase barrier: every worker finishes before serial code resumes
	wg.Wait()
}

// Other sync primitives are not detgo's concern: a mutex alone cannot
// reorder events.
func mutexesAreSilent(mu *sync.Mutex, work func()) {
	mu.Lock()
	work()
	mu.Unlock()
}

// A WaitGroup look-alike from this package is not flagged: resolution is
// by type identity, not by method name.
type fakeWaitGroup struct{}

func (fakeWaitGroup) Add(int) {}
func (fakeWaitGroup) Wait()   {}

func lookAlike() {
	var wg fakeWaitGroup
	wg.Add(1)
	wg.Wait()
}
