//go:build !race

package main

const raceMode = false
