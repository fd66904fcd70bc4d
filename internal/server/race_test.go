//go:build race

package server

// raceEnabled reports a race-detector build, whose runtime drops a
// quarter of sync.Pool puts: allocation pins cannot hold there.
const raceEnabled = true
