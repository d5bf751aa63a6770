(* In-memory span recorder for the traced benchmark run, exported as Chrome
   trace-event JSON (Perfetto opens it). Spans are recorded by the
   benchmark around its calls into the library; nothing inside the library
   is instrumented. Times are monotonic-clock seconds. *)

module Json = Aspipe_obs.Json

type span = {
  id : int;
  name : string;
  cat : string;
  tid : int;
  start : float;
  stop : float;
  parent : int option;
  args : (string * Json.t) list;
}

type t = {
  origin : float;
  mutable next_id : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable spans : span list;  (* closed spans, newest first *)
}

let create ~origin = { origin; next_id = 1; stack = []; spans = [] }

let current t = match t.stack with [] -> None | id :: _ -> Some id

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* A span whose interval was measured elsewhere (a decide window, a stage's
   busy interval). [parent] defaults to the innermost open span. *)
let add t ?(tid = 0) ?parent ?(args = []) ~name ~cat ~start ~stop () =
  let parent = match parent with Some _ -> parent | None -> current t in
  t.spans <- { id = fresh_id t; name; cat; tid; start; stop; parent; args } :: t.spans

(* Time [f] as a span; spans added while it runs become its children. *)
let with_span t ~now ?(tid = 0) ?(args = []) ~name ~cat f =
  let id = fresh_id t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let start = now () in
  let finish () =
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; cat; tid; start; stop = now (); parent; args } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count t = List.length t.spans

let to_json t ~meta =
  let us x = Json.Float (Float.round ((x -. t.origin) *. 1e8) /. 100.0) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String s.cat);
        ("ph", Json.String "X");
        ("ts", us s.start);
        ("dur", Json.Float (Float.max 0.0 (Float.round ((s.stop -. s.start) *. 1e8) /. 100.0)));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ( "args",
          Json.Obj
            (("id", Json.Int s.id)
            :: ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null)
            :: s.args) );
      ]
  in
  (* Oldest first, parents before their children at equal start times. *)
  let spans =
    List.stable_sort
      (fun a b ->
        match Float.compare a.start b.start with 0 -> Int.compare a.id b.id | c -> c)
      (List.rev t.spans)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event spans));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj meta);
    ]
