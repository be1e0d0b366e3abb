// Package fixture is the internal/core gojoin canary: a group advance
// whose worker pool claims groups atomically but returns without
// waiting for the workers — the leak any worker pool in internal/core
// must never have before it reads group state. The canary test
// asserts exactly ONE diagnostic, at the marked line.
package fixture

import "sync/atomic"

type group struct{ now int }

func (g *group) runUntil(t int) { g.now = t }

// advanceGroups fans the groups over a worker pool but forgets the
// WaitGroup: the merge that follows would read group state while the
// workers are still draining their windows.
func advanceGroups(groups []*group, until, workers int) {
	var next atomic.Int64
	for i := 0; i < workers; i++ {
		go func() { // CANARY: window worker is never joined before the barrier merge
			for {
				k := int(next.Add(1)) - 1
				if k >= len(groups) {
					return
				}
				groups[k].runUntil(until)
			}
		}()
	}
}
