[@@@lint.protocol_core]
module Engine = Bft_sim.Engine
let now e = Bft_sim.Engine.now e
let send net = Bft_net.Network.send net
type timer = Bft_sim.Engine.handle option
let label = Bft_sim.Engine.Id ("vc", 0)
let costs = Bft_net.Costs.default
