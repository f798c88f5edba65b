"""RL004 bad: aliasing the published cube does not launder the write."""


def apply_slots(server, slots):
    target = server.serving.cube
    target.apply(slots)
