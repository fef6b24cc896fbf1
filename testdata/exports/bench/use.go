package bench

import (
	"skyloader/internal/dead"
	"skyloader/internal/other"
)

// Use calls dead.BenchOnly, as the frozen benchmark calls the engine.
func Use() {
	dead.BenchOnly()
	other.Call()
}
