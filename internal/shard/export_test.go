package shard

// DialShardTimeout is DialShard with a per-call deadline other than
// callTimeout, so the hung-agent test does not have to wait that out.
var DialShardTimeout = dialShard
