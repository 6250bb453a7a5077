//go:build race

package serve

func init() { raceAllocSlack = 1 }
