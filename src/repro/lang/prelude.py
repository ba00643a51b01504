"""The jmini prelude: builtin classes with native methods.

The prelude is itself jmini source, parsed by the ordinary parser and
compiled into ordinary class files whose methods are marked ``native``.
The VM binds each native method to a Python implementation in
:mod:`repro.vm.natives`.

Builtin classes:

``Object``
    The root of the class hierarchy.
``Sys``
    Printing, simulated time, sleeping, thread spawning and the special
    ``forceTransform`` hook the paper describes in §3.4 (forcing an object
    referenced from a transformer to be transformed first).
``Net``
    The simulated socket layer used by the server applications.
``Str``
    int/string conversions.
``Files``
    A simulated in-memory filesystem (the Jetty stand-in serves documents
    from it).
"""

import functools

PRELUDE_SOURCE = """
class Object {
}

class Sys {
    static native void print(string s);
    static native int time();
    static native void sleep(int ms);
    static native void spawn(Object runnable);
    static native void yield();
    static native void halt();
    static native int rand(int bound);
    static native void forceTransform(Object o);
}

class Net {
    static native int listen(int port);
    static native int accept(int listenFd);
    static native string readLine(int fd);
    static native string read(int fd, int n);
    static native void write(int fd, string data);
    static native void close(int fd);
    static native bool isOpen(int fd);
}

class Str {
    static native string fromInt(int value);
    static native int toInt(string text);
    static native string fromBool(bool value);
    static native string repeat(string part, int count);
}

class Files {
    static native string read(string path);
    static native bool exists(string path);
    static native void write(string path, string data);
    static native void remove(string path);
}
"""

#: Names of prelude classes; user programs may not redeclare these.
PRELUDE_CLASS_NAMES = ("Object", "Sys", "Net", "Str", "Files")


@functools.cache
def parse_prelude():
    """Parse the prelude into an AST program, once per process.

    Every caller shares the returned program. Nothing writes into it: the
    type checker annotates only expression nodes, and the prelude has none
    (native methods only, no bodies, no field initialisers)."""
    from .parser import parse

    return parse(PRELUDE_SOURCE, "<prelude>")
