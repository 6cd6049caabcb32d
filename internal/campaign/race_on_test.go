//go:build race

package campaign

// raceEnabled loosens TestShardJobsCostIsPerShard's equality: the race
// detector drops sync.Pool puts at random (fmt's printer pool among
// them), so allocation counts vary from call to call.
const raceEnabled = true
