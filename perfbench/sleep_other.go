//go:build !linux

package main

import "time"

func sleep(d time.Duration) { time.Sleep(d) }
