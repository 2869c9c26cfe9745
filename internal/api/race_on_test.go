//go:build race

package api_test

const raceEnabled = true
