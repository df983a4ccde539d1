type t = Iftgraph.Build.t

let attach ?(context = "") tracer =
  let graph = tracer.Tracer.graph in
  Iftgraph.Build.set_context graph context;
  graph

let builder t = t
let finish = Iftgraph.Build.finish
let write_file t path = Iftgraph.Store.write_file (finish t) path
let detach _ = ()
