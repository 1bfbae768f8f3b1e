package main

import (
	"syscall"
	"time"
)

// sleep blocks the calling goroutine's thread in nanosleep(2) for d. The Go
// timer path parks in epoll_wait, whose timeout has millisecond resolution,
// so time.Sleep wakes an idle open-loop generator up to a millisecond late.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
