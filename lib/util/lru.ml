type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards most-recently-used *)
  mutable next : ('k, 'v) node option; (* towards least-recently-used *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
  mutable evictions : int;
}

let create ~capacity () =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { capacity; table = Hashtbl.create (max 16 (min capacity 1024));
    head = None; tail = None; evictions = 0 }

let capacity t = t.capacity

let length t = Hashtbl.length t.table

let evictions t = t.evictions

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with
   | Some h -> h.prev <- Some node
   | None -> t.tail <- Some node);
  t.head <- Some node

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
    unlink t node;
    push_front t node;
    Some node.value

let mem t k = Hashtbl.mem t.table k

let pop t =
  match t.tail with
  | None -> None
  | Some lru ->
    unlink t lru;
    Hashtbl.remove t.table lru.key;
    t.evictions <- t.evictions + 1;
    Some (lru.key, lru.value)

let add t k v =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.table k with
     | Some node ->
       node.value <- v;
       unlink t node;
       push_front t node
     | None ->
       if Hashtbl.length t.table >= t.capacity then ignore (pop t);
       let node = { key = k; value = v; prev = None; next = None } in
       Hashtbl.replace t.table k node;
       push_front t node)
  end

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None
