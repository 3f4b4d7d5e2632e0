"""RPR006 fixture: local-scope classes crossing pipes / pickle streams."""

from repro.core.visitor import Visitor


def make_bad_visitor(k):
    class LocalVisitor(Visitor):  # expect: RPR006
        def visit(self, vertex, state):
            return []

    return LocalVisitor(k)


def make_registered_visitor(k):
    # A globals() registration is no exemption: define the class at
    # module level instead.
    class RegisteredVisitor(Visitor):  # expect: RPR006
        def visit(self, vertex, state):
            return []

    RegisteredVisitor.__qualname__ = f"RegisteredVisitor_{k}"
    globals()[RegisteredVisitor.__name__] = RegisteredVisitor
    return RegisteredVisitor(k)


def make_piped_payload(mailbox):
    class Payload:  # expect: RPR006
        pass

    mailbox.push(Payload())
    return None


def make_plain_local_helper():
    # Clean: local class that never crosses a pipe or pickle stream.
    class Helper:
        pass

    return Helper()


class CheckpointedTable:
    """Pickle-reachable (checkpointed); callables on self must pickle."""

    def __init__(self):
        self.rows = []
        self.keyfn = lambda row: row[0]  # expect: RPR006

    def snapshot_state(self):
        return {"rows": list(self.rows)}

    def restore_state(self, snap):
        self.rows = list(snap["rows"])


class EphemeralTable:
    """Clean: not a visitor, not checkpointed — never crosses a pickle."""

    def __init__(self):
        self.keyfn = lambda row: row[0]
