type 'a entry = { key : int; value : 'a }

type 'a t = {
  mutable arr : 'a entry option array;
  mutable len : int;
}

let create () = { arr = Array.make 16 None; len = 0 }

let grow h =
  let arr = Array.make (2 * Array.length h.arr) None in
  Array.blit h.arr 0 arr 0 h.len;
  h.arr <- arr

let get h i =
  match h.arr.(i) with
  | Some e -> e
  | None -> assert false

let push h ~key value =
  if h.len = Array.length h.arr then grow h;
  let i = ref h.len in
  h.len <- h.len + 1;
  h.arr.(!i) <- Some { key; value };
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if (get h !i).key < (get h parent).key then begin
      let tmp = h.arr.(!i) in
      h.arr.(!i) <- h.arr.(parent);
      h.arr.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let min_key h = if h.len = 0 then None else Some (get h 0).key

let min h =
  if h.len = 0 then None
  else
    let e = get h 0 in
    Some (e.key, e.value)

let pop h =
  if h.len = 0 then None
  else begin
    let top = get h 0 in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    h.arr.(h.len) <- None;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && (get h l).key < (get h !smallest).key then smallest := l;
      if r < h.len && (get h r).key < (get h !smallest).key then smallest := r;
      if !smallest <> !i then begin
        let tmp = h.arr.(!i) in
        h.arr.(!i) <- h.arr.(!smallest);
        h.arr.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some (top.key, top.value)
  end

let to_list h =
  let out = ref [] in
  for i = h.len - 1 downto 0 do
    let e = get h i in
    out := (e.key, e.value) :: !out
  done;
  !out

let clear h =
  Array.fill h.arr 0 (Array.length h.arr) None;
  h.len <- 0
