//go:build race

package sim

func init() { raceBuild = true }
