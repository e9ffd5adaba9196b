package laden;

// Unicode letters name the class and its fields: é, 中 and ß need
// no identifier class of their own; the decomposed café does.
public class Größe extends Preis {
    private int 中;
    private double café;

    public int breite() {
        return 中 * 2;
    }

    public double kaffee() {
        café = betrag() + breite();
        setzen(中);
        return café;
    }
}
