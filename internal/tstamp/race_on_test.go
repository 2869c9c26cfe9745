//go:build race

package tstamp

const raceEnabled = true
