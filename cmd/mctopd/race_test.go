//go:build race

package main

func init() { raceBuild = true }
