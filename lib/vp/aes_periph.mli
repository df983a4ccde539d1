(** AES-128 peripheral: the trusted crypto engine of the immobilizer case
    study. It accepts classified key/plaintext material (its input-side
    clearance is checked against the policy when configured) and
    {e declassifies} the ciphertext so encrypted data may leave on a public
    interface (Section IV-A).

    Register map:
    - [0x00..0x0f] KEY (write);
    - [0x10..0x1f] DATA_IN (write);
    - [0x20..0x2f] DATA_OUT (read): ciphertext, tagged [out_tag];
    - [0x30] CTRL (write 1: start encryption) / STATUS (read: bit 0 busy). *)

type t

val create :
  Env.t ->
  name:string ->
  out_tag:Dift.Lattice.tag ->
  ?in_clearance:Dift.Lattice.tag ->
  unit ->
  t
(** [out_tag] is the declassified class of the ciphertext. [in_clearance],
    when given, is the peripheral's execution clearance on the KEY
    register: key writes whose class may not flow to it are violations
    (e.g. (HC,HI) in the immobilizer policy, which also blocks attacker key
    substitution); plaintext writes are never checked since the engine's
    purpose is to encrypt untrusted challenges. An encryption takes 2 us
    of simulated time. *)

val socket : t -> Tlm.Socket.target

val set_irq_callback : t -> (unit -> unit) -> unit
(** Encryption-complete interrupt. *)

val start : t -> unit
(** Spawn the crypto engine process. *)

val busy : t -> bool
val encryptions : t -> int

val save : t -> Snapshot.Codec.writer -> unit
val load : t -> Snapshot.Codec.reader -> unit
