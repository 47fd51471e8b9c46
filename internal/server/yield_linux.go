//go:build linux

package server

import (
	"syscall"
	"time"
)

// yieldAfter is how long a statement must have held its thread for the
// connection loop to offer the processor to another thread before it
// goes back to its read.
const yieldAfter = 100 * time.Microsecond

// yieldAfterStatement is called with the reply flushed and the time
// the statement took. If that was yieldAfter or more it calls
// sched_yield: the kernel runs another runnable thread queued on this
// processor, if there is one, and returns at once if not.
//
// Why a server yields at all: on a host with as many processors as
// GOMAXPROCS, Linux sometimes queues a just-woken runtime thread behind
// a running thread of this same process, and does not preempt the
// running one before the next scheduler tick (4 ms at 250 Hz) even
// though the other processor has meanwhile gone idle. The thread that
// waits holds a P, the goroutine it was running and its run queue, so
// whatever statement is on it takes one tick longer. On the wire
// benchmark's 2-vCPU box that is 0.5-1.5% of scan_select statements
// whatever the engine does (EXPERIMENTS.md, "tick-stalls") — exactly
// where a p99 flips from run to run between its ordinary tail and
// ordinary + 4 ms. Yielding at the statement boundary bounds the wait
// by one statement instead of one tick.
//
// Why not after every statement: when a thread is queued the yield is
// a context switch, and a point lookup (25 µs on the same box) costs
// less than that; yielding after each one read +48% on point_read's
// p50. A statement shorter than yieldAfter cannot have kept anyone
// waiting long, and a stream of them is no worse off than before.
//
// RawSyscall, so the P stays with this thread while it waits its turn,
// exactly as under an involuntary preemption.
func yieldAfterStatement(took time.Duration) {
	if took >= yieldAfter {
		syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}
