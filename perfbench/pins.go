package main

// pinKey names one pinned output at defaultSeed: a workload's layout,
// and for serve which of its reference runs ("city" or "storm").
type pinKey struct {
	workload string
	layout   int
	run      string
}

// pin is a session's output hashes: its Result() JSON and its
// end-of-run section digests (see shortHash and sectionsHash).
type pin struct {
	result, sections string
}

// pins holds the outputs of every layout at defaultSeed. Re-pinning is a
// benchmark change of its own: a program change that moves a pin
// changed simulated behaviour.
var pins = map[pinKey]pin{
	{"city", 0, ""}:         {"2171becd4cc435bf", "0fc6c93ba1c43e76"},
	{"city", 1, ""}:         {"28684f3ff1bd9aeb", "c6609d77ca4a16bd"},
	{"city", 2, ""}:         {"07cdaa197a2ddc63", "6a8c9705bd9c96c9"},
	{"city", 3, ""}:         {"b5e90febade8eb49", "d44c8f401b368973"},
	{"storm", 0, ""}:        {"269a7d83a4395956", "3053ce7704e73012"},
	{"storm", 1, ""}:        {"4a5da8a6ae1d6f22", "54994acc5208e8f2"},
	{"storm", 2, ""}:        {"78fd62adad11622e", "8f73c1d0837e2a31"},
	{"storm", 3, ""}:        {"efd398646847746f", "0317fa0d8af2fcac"},
	{"storm", 4, ""}:        {"c4d28d255234962a", "b874ca2ceb133e21"},
	{"storm", 5, ""}:        {"1db825e24c71cd36", "d1199c1256b1f169"},
	{"storm", 6, ""}:        {"62d78dd32a213f67", "94536bc31112e4c7"},
	{"storm", 7, ""}:        {"92ce77d69a699162", "909d8a1df9961492"},
	{"storm", 8, ""}:        {"be17b971f75a16d2", "d79a4d9f1c164425"},
	{"storm", 9, ""}:        {"445f5460a767e7eb", "bb6a6704519dd79f"},
	{"storm", 10, ""}:       {"766c252a31dba470", "6236b1e2e3da6305"},
	{"storm", 11, ""}:       {"afcda7675465b6a5", "06000a47b404b1c4"},
	{"tiled-mobile", 0, ""}: {"5d5557a386e1144d", "2f0720bc8b25ed00"},
	{"tiled-mobile", 1, ""}: {"4af67d14bc138abb", "c334c7a8c17be2e9"},
	{"tiled-mobile", 2, ""}: {"abc20513249b5621", "67a89d826d49d346"},
	{"tiled-mobile", 3, ""}: {"fa7ebea190d247c9", "7e5be545595c5080"},
	{"tiled-mobile", 4, ""}: {"ff53aa6f995c5f04", "6b48a014d132efea"},
	{"tiled-mobile", 5, ""}: {"9824e36bec988d68", "4b00cd5f79fc6473"},
	{"serve", 0, "city"}:    {"77b8d92534350751", "c98a8bb68184304c"},
	{"serve", 0, "storm"}:   {"acd62f32c94a99b9", "00ea2e831792430d"},
	{"serve", 1, "city"}:    {"949bbec3926f563f", "6c7c61dbcde17b83"},
	{"serve", 1, "storm"}:   {"a5b1e48018f7e6ed", "0c40e134c23ddab4"},
	{"serve", 2, "city"}:    {"9e38ecd5691577cc", "f2252ad36b231390"},
	{"serve", 2, "storm"}:   {"a84debf56ce1988f", "68e15e13e4dcaec4"},
	{"serve", 3, "city"}:    {"d0d3b21f349d946f", "44c57ecf704c305e"},
	{"serve", 3, "storm"}:   {"fcb8b869c33a06d9", "cb3626ad4baa8462"},
	{"serve", 4, "city"}:    {"828caee8b576ab58", "5311b42bda3950e1"},
	{"serve", 4, "storm"}:   {"fefa11ae7aa54fa7", "fdae21cf3e4e3bfb"},
}
