//go:build race

package index_test

func init() { raceEnabled = true }
